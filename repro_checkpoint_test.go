package repro_test

// Checkpoint/restore acceptance at the public API: every workload,
// interrupted at a chunk boundary mid-measure and resumed from its
// snapshot, reproduces the golden corpus byte for byte — on both the
// translated and interpreted dispatch paths — and a process killed
// with SIGKILL mid-run resumes in a fresh process with the same
// bytes as a straight-through run.

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestMain doubles as the crash-test helper: when the helper env var
// names a checkpoint directory, the process runs one checkpointed
// workload (to be SIGKILLed by the parent test) instead of the test
// suite.
func TestMain(m *testing.M) {
	if dir := os.Getenv("INSTREP_CKPT_HELPER_DIR"); dir != "" {
		crashHelperMain(dir)
		return
	}
	if dir := os.Getenv("INSTREP_JOBS_HELPER_DIR"); dir != "" {
		jobsHelperMain(dir)
		return
	}
	os.Exit(m.Run())
}

// TestResumedRunsMatchGoldenCorpus is the headline determinism
// acceptance: interrupt each workload immediately after its first
// measure-phase snapshot, resume it, and byte-compare the resumed
// canonical report against the golden corpus — which was pinned by
// uninterrupted runs. Both dispatch paths must hold: snapshot state is
// architectural, so a snapshot is path-independent.
func TestResumedRunsMatchGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload set twice in -short mode")
	}
	for _, path := range []string{"translated", "interpreted"} {
		t.Run(path, func(t *testing.T) {
			for _, w := range repro.Workloads() {
				t.Run(w, func(t *testing.T) {
					cfg := repro.QuickConfig()
					cfg.DisableTranslation = path == "interpreted"
					rep := interruptThenResume(t, w, cfg)
					got, err := repro.CanonicalReportJSON(rep)
					if err != nil {
						t.Fatal(err)
					}
					want, err := os.ReadFile(goldenPath(w))
					if err != nil {
						t.Fatalf("missing golden file: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("resumed report diverged from golden corpus\n%s",
							firstDiff(want, got))
					}
				})
			}
		})
	}
}

// interruptThenResume cancels a checkpointed run right after its first
// measure-phase snapshot, then resumes it to completion. The runner
// keys snapshots by result-cache fingerprint, exactly as the CLI and
// the serve daemon do.
func interruptThenResume(t *testing.T, workload string, cfg repro.Config) *repro.Report {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cutAt uint64
	interrupted := &repro.Runner{Checkpoint: &repro.CheckpointPolicy{
		Store: store,
		Every: 1, // snapshot at every chunk boundary
		Notify: func(ev repro.CheckpointEvent) {
			if !ev.Resumed && ev.Phase == "measure" && cutAt == 0 {
				cutAt = ev.Retired
				cancel()
			}
		},
	}}
	rep, err := interrupted.RunWorkload(ctx, workload, cfg)
	if err == nil {
		t.Fatal("interrupted run did not error")
	}
	if cutAt == 0 {
		t.Fatal("no measure-phase snapshot was written")
	}
	if rep == nil || !rep.Truncated || rep.Checkpoint == nil {
		t.Fatalf("interrupted run: Truncated=%v Checkpoint=%+v",
			rep != nil && rep.Truncated, rep.Checkpoint)
	}

	var resumedAt uint64
	resumer := &repro.Runner{Checkpoint: &repro.CheckpointPolicy{
		Store:  store,
		Resume: true,
		Notify: func(ev repro.CheckpointEvent) {
			if ev.Resumed {
				resumedAt = ev.Retired
			}
		},
	}}
	rep2, err := resumer.RunWorkload(context.Background(), workload, cfg)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if resumedAt != cutAt {
		t.Errorf("resumed at %d retired, want %d", resumedAt, cutAt)
	}
	return rep2
}

// TestWatchdogReportsLastCheckpoint arms the watchdog against an
// injected stall in a checkpointed run: the abort diagnostic and the
// truncated report must both carry the last snapshot's retire count
// and age, so an operator knows what a resume would recover.
func TestWatchdogReportsLastCheckpoint(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.Config{SkipInstructions: 20_000, MeasureInstructions: 500_000}
	cfg.WatchdogInterval = 500 * time.Millisecond
	cfg.Faults = faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.SlowStep, Workload: "lzw", At: 400_000, Delay: time.Minute},
	)
	cfg.Checkpoint = &repro.CheckpointPolicy{Store: store, Key: "feedbeef", Every: 1}
	rep, err := repro.RunWorkload(context.Background(), "lzw", cfg)
	if err == nil {
		t.Fatal("stalled run did not error")
	}
	var we *core.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("error is not a WatchdogError: %v", err)
	}
	if we.LastCheckpointRetired == 0 || we.LastCheckpointRetired > we.Retired {
		t.Errorf("LastCheckpointRetired = %d (retired %d)", we.LastCheckpointRetired, we.Retired)
	}
	if we.LastCheckpointAge <= 0 {
		t.Errorf("LastCheckpointAge = %v", we.LastCheckpointAge)
	}
	if !strings.Contains(we.Error(), "last checkpoint") {
		t.Errorf("diagnostic lacks checkpoint info: %q", we.Error())
	}
	if rep == nil || rep.Checkpoint == nil ||
		rep.Checkpoint.LastRetired != we.LastCheckpointRetired {
		t.Errorf("truncated report checkpoint status = %+v, want LastRetired=%d",
			rep.Checkpoint, we.LastCheckpointRetired)
	}
}

// snapshotDigestV3 pins every snapshot file that lzw at QuickConfig,
// count-paced every 100,000 retired instructions under the key
// "d16e57", writes: the retire count of each write and the
// SHA-256 of the whole file (envelope and body) it left on disk.
var snapshotDigestV3 = []string{
	"100000 87c81a128b5c61d67e0590023863eeb422426cf68679c203107290e6dd7fc020",
	"362144 a343f7a461e1206ecaef5375e356d9b8185beb4ff19a20d36f722ea6230843f4",
}

// snapshotV2File is the first file the same run wrote at format
// version 2, when the reuse buffer and the value predictor stored every
// configured set, and snapshotV2Digest its SHA-256 as version 2 pinned
// it.
const (
	snapshotV2File   = "testdata/checkpoint/lzw-v2.ckpt.gz"
	snapshotV2Digest = "8b16a5174c100771cae057ff80c55fe5986659ab6a89f92c75ecf50831747295"
)

// TestSnapshotBytesPinned holds the checkpoint body to its format
// version: a resumable snapshot written by one build must mean the same
// thing to every build that reads its FormatVersion, so any change to
// the bytes a run snapshots must come with a FormatVersion bump (and
// new digests here).
func TestSnapshotBytesPinned(t *testing.T) {
	if checkpoint.FormatVersion != 3 {
		t.Fatalf("checkpoint.FormatVersion is %d: record the new version's digests", checkpoint.FormatVersion)
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "d16e57"
	var got []string
	cfg := repro.QuickConfig()
	cfg.Checkpoint = &repro.CheckpointPolicy{Store: store, Key: key, Every: 100_000,
		Notify: func(ev repro.CheckpointEvent) {
			data, err := os.ReadFile(filepath.Join(dir, key+".ckpt"))
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, fmt.Sprintf("%d %x", ev.Retired, sha256.Sum256(data)))
		}}
	if _, err := repro.RunWorkload(context.Background(), "lzw", cfg); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats.WriteErrors.Value(); n != 0 {
		t.Fatalf("%d snapshot writes failed", n)
	}
	if !slices.Equal(got, snapshotDigestV3) {
		t.Errorf("snapshot files changed without a FormatVersion bump:\n got %q\nwant %q", got, snapshotDigestV3)
	}
}

// TestV2SnapshotRestartsFresh plants a version 2 snapshot under the
// key of the run that wrote it. A resume drops it as another version's
// file (ErrVersion) and runs fresh, to a report byte-identical to an
// uncheckpointed run (the golden corpus). Its body in a current
// envelope decodes, but its reuse buffer holds every configured set,
// so the restore rejects it and the run again starts fresh.
func TestV2SnapshotRestartsFresh(t *testing.T) {
	f, err := os.Open(snapshotV2File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(v2)); got != snapshotV2Digest {
		t.Fatalf("%s holds %s, not the pinned version 2 file", snapshotV2File, got)
	}
	if _, _, err := checkpoint.Decode(v2); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("Decode of a version 2 file: err = %v, want ErrVersion", err)
	}
	const key = "d16e57"
	// The envelope is magic | u32 version | u32 keyLen | key | u64
	// bodyLen | body | sha256.
	body := v2[4+4+4+len(key)+8 : len(v2)-sha256.Size]

	want, err := os.ReadFile(goldenPath("lzw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		file               []byte
		mismatch, rejected uint64
	}{
		{"v2", v2, 1, 0},
		{"v2 body in a current envelope", checkpoint.Encode(key, body), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := false
			cfg := repro.QuickConfig()
			cfg.Checkpoint = &repro.CheckpointPolicy{Store: store, Key: key, Resume: true,
				Notify: func(ev repro.CheckpointEvent) { resumed = resumed || ev.Resumed }}
			rep, err := repro.RunWorkload(context.Background(), "lzw", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if resumed {
				t.Error("the run resumed from the planted file")
			}
			if n := store.Stats.VersionMismatch.Value(); n != tc.mismatch {
				t.Errorf("VersionMismatch = %d, want %d", n, tc.mismatch)
			}
			if n := store.Stats.ResumeRejected.Value(); n != tc.rejected {
				t.Errorf("ResumeRejected = %d, want %d", n, tc.rejected)
			}
			got, err := repro.CanonicalReportJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fresh run after the planted file diverged from the golden corpus\n%s", firstDiff(want, got))
			}
		})
	}
}

// Crash-test parameters shared by the parent test and the helper
// process. The helper runs interpreted (slower) so the parent's
// SIGKILL reliably lands mid-window; the resumed and comparison runs
// use the default translated path — snapshots are dispatch-path
// independent.
const (
	crashWorkload = "lzw"
	crashKey      = "feedc0de"
	crashEvery    = 200_000
)

func crashWindow() repro.Config {
	return repro.Config{SkipInstructions: 100_000, MeasureInstructions: 3_000_000}
}

func crashHelperMain(dir string) {
	store, err := checkpoint.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	cfg := crashWindow()
	cfg.DisableTranslation = true
	cfg.Checkpoint = &repro.CheckpointPolicy{Store: store, Key: crashKey, Every: crashEvery}
	if _, err := repro.RunWorkload(context.Background(), crashWorkload, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestCrashResumeAcrossProcesses is the cross-process acceptance: a
// child process is SIGKILLed mid-simulation — no cleanup, no graceful
// anything — and a fresh process resumes from whatever snapshot
// survived on disk, finishing with a report byte-identical to a
// straight-through run. INSTREP_CRASH_LOOPS repeats the kill/resume
// cycle with staggered kill points (the crashsmoke make target).
func TestCrashResumeAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	straight, err := repro.RunWorkload(context.Background(), crashWorkload, crashWindow())
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.CanonicalReportJSON(straight)
	if err != nil {
		t.Fatal(err)
	}

	loops := 1
	if v := os.Getenv("INSTREP_CRASH_LOOPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			loops = n
		}
	}
	for i := 0; i < loops; i++ {
		t.Run(fmt.Sprintf("loop%d", i), func(t *testing.T) {
			dir := t.TempDir()
			var stderr bytes.Buffer
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), "INSTREP_CKPT_HELPER_DIR="+dir)
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Kill the helper the moment its first snapshot lands on
			// disk (plus a per-loop stagger so repeated loops cut at
			// different points of the run).
			path := filepath.Join(dir, crashKey+".ckpt")
			deadline := time.Now().Add(time.Minute)
			for {
				if _, err := os.Stat(path); err == nil {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("no snapshot appeared; helper stderr:\n%s", stderr.String())
				}
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
			cmd.Process.Kill() // SIGKILL: no deferred cleanup runs
			cmd.Wait()

			// A fresh "process": a new store over the same directory,
			// scrubbing whatever the kill left behind (possibly a temp
			// file from a write in flight).
			store, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var resumedAt uint64
			cfg := crashWindow()
			cfg.Checkpoint = &repro.CheckpointPolicy{
				Store: store, Key: crashKey, Resume: true,
				Notify: func(ev repro.CheckpointEvent) {
					if ev.Resumed {
						resumedAt = ev.Retired
					}
				},
			}
			rep, err := repro.RunWorkload(context.Background(), crashWorkload, cfg)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if resumedAt == 0 {
				t.Fatal("run did not resume from the killed process's snapshot")
			}
			got, err := repro.CanonicalReportJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed report diverged from the straight-through run\n%s",
					firstDiff(want, got))
			}
		})
	}
}
