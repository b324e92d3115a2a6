package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"repro"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sweep"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f redirected to a pipe and returns what it
// wrote.
func capture(t *testing.T, f **os.File, fn func() error) ([]byte, error) {
	t.Helper()
	old := *f
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = wp
	fnErr := fn()
	wp.Close()
	*f = old
	out, err := io.ReadAll(rp)
	if err != nil {
		t.Fatal(err)
	}
	return out, fnErr
}

func TestSweepDryRun(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), []string{
			"-dry-run", "-entries", "64,256", "-assoc", "1,4",
			"-policy", "lru,fifo", "-bench", "lzw", "-skip", "10", "-measure", "100"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 8 {
		t.Fatalf("dry run printed %d cells, want 8:\n%s", len(lines), out)
	}
	if lines[0] != "s10-m100-e64-a1-lru/lzw" {
		t.Errorf("first cell %q", lines[0])
	}
}

func TestSweepArtifactFilesAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	dir := t.TempDir()
	args := func(tag string) []string {
		return []string{
			"-entries", "64,256", "-assoc", "1", "-policy", "lru,random",
			"-bench", "lzw,scrip", "-skip", "1000", "-measure", "20000",
			"-csv", filepath.Join(dir, tag+".csv"),
			"-json", filepath.Join(dir, tag+".json"),
		}
	}
	out, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), append(args("a"), "-parallel", "1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("file-directed sweep wrote %d bytes to stdout", len(out))
	}
	if _, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), append(args("b"), "-parallel", "4"))
	}); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".csv", ".json"} {
		a, err := os.ReadFile(filepath.Join(dir, "a"+ext))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "b"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s artifacts differ across -parallel 1 vs 4", ext)
		}
		if len(a) == 0 {
			t.Errorf("empty %s artifact", ext)
		}
	}
	csv, _ := os.ReadFile(filepath.Join(dir, "a.csv"))
	// 2 entries × 1 assoc × 2 policies × 2 workloads = 8 cells + 4 means.
	if got := bytes.Count(csv, []byte("\n")); got != 1+8+4 {
		t.Errorf("CSV has %d lines, want 13:\n%s", got, csv)
	}
}

func TestSweepSpecFile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(
		`{"entries":[64],"assoc":[1,2],"policies":["fifo"],"workloads":["lzw"],"skip":1000,"measure":20000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), []string{"-spec", spec})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "cell,lzw,64,2,fifo,1000,20000,") {
		t.Errorf("spec-file sweep output missing expected cell:\n%s", out)
	}
}

// TestSweepReportsReplayedCells pins the replay accounting line: in a
// one-workload grid every cell but the first to simulate replays that
// cell's census verdicts, and a warm re-run through the cache replays
// none, since it simulates nothing.
func TestSweepReportsReplayedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	args := []string{
		"-entries", "64,256", "-assoc", "1,4", "-policy", "lru,fifo",
		"-bench", "lzw", "-skip", "1000", "-measure", "20000",
		"-cache-dir", t.TempDir(), "-csv", "",
	}
	for _, want := range []string{
		"instrep: 7 of 8 cells replayed from a sibling's census verdicts\n",
		"instrep: 0 of 8 cells replayed from a sibling's census verdicts\n",
	} {
		stderr, err := capture(t, &os.Stderr, func() error {
			return cmdSweep(context.Background(), args)
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(stderr) != want {
			t.Errorf("stderr = %q, want %q", stderr, want)
		}
	}

	// Checkpointed cells replay too, and a replayed cell counts as
	// neither resumed nor started fresh.
	stderr, err := capture(t, &os.Stderr, func() error {
		return cmdSweep(context.Background(), []string{
			"-entries", "64,256", "-assoc", "1,4", "-policy", "lru,fifo",
			"-bench", "lzw", "-skip", "1000", "-measure", "20000",
			"-checkpoint-dir", t.TempDir(), "-resume", "-csv", "",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "instrep: 7 of 8 cells replayed from a sibling's census verdicts\n" +
		"instrep: 0 cells resumed from checkpoints, 1 started fresh\n"
	if string(stderr) != want {
		t.Errorf("checkpointed sweep: stderr = %q, want %q", stderr, want)
	}
}

func TestSweepFlagErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"spec plus axis flag", []string{"-spec", "x.json", "-entries", "64"}, "exclusive"},
		{"positional arg", []string{"extra"}, "positional"},
		{"bad entries", []string{"-entries", "64,zebra"}, `invalid -entries value "zebra"`},
		{"empty assoc", []string{"-assoc", ","}, "-assoc is empty"},
		{"bad policy", []string{"-policy", "mru", "-dry-run"}, "unknown replacement policy"},
		{"bad workload", []string{"-bench", "nope", "-dry-run"}, "unknown workload"},
		{"resume without dir", []string{"-resume"}, "-resume needs -checkpoint-dir"},
		{"every without dir", []string{"-checkpoint-every", "5"}, "-checkpoint-every needs -checkpoint-dir"},
		{"missing spec file", []string{"-spec", "/nonexistent/spec.json"}, "reading -spec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := cmdSweep(context.Background(), c.args)
			if err == nil {
				t.Fatalf("cmdSweep(%v) succeeded", c.args)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestSweepResumeReportsRestoredCells pins the -resume accounting: a
// cell interrupted mid-simulation leaves a snapshot; re-sweeping the
// same grid with -resume restores it, logs "N cells resumed from
// checkpoints", and bumps the sweep_cells_resumed counter.
func TestSweepResumeReportsRestoredCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	ckptDir := t.TempDir()

	// Interrupt one cell run deterministically: cancel on the first
	// snapshot write. The config comes from sweep.Expand so the
	// fingerprint matches what the sweep below computes.
	sp := &sweep.Spec{
		Entries: []int{64}, Assoc: []int{1}, Policies: []string{"lru"},
		Workloads: []string{"lzw"}, Skip: 1000, Measure: 600000, InputVariant: 1,
	}
	cells, err := sweep.Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner := &repro.Runner{Checkpoint: &repro.CheckpointPolicy{
		Store: store,
		Every: 100000,
		Notify: func(ev repro.CheckpointEvent) {
			if !ev.Resumed {
				cancel()
			}
		},
	}}
	runner.RunWorkload(ctx, cells[0].Workload, cells[0].Config) // truncated on purpose
	if keys := store.Keys(); len(keys) != 1 {
		t.Fatalf("interrupted run left %d snapshots, want 1", len(keys))
	}

	before := obs.Default.Counter("sweep_cells_resumed").Value()
	stderr, sweepErr := capture(t, &os.Stderr, func() error {
		_, err := captureStdout(t, func() error {
			return cmdSweep(context.Background(), []string{
				"-entries", "64", "-assoc", "1", "-policy", "lru", "-bench", "lzw",
				"-skip", "1000", "-measure", "600000",
				"-checkpoint-dir", ckptDir, "-resume"})
		})
		return err
	})
	if sweepErr != nil {
		t.Fatalf("resumed sweep failed: %v\nstderr: %s", sweepErr, stderr)
	}
	if got := obs.Default.Counter("sweep_cells_resumed").Value() - before; got != 1 {
		t.Errorf("sweep_cells_resumed advanced by %d, want 1", got)
	}
	if !strings.Contains(string(stderr), "1 cells resumed from checkpoints, 0 started fresh") {
		t.Errorf("resume log line missing:\n%s", stderr)
	}
	// A lone cell has no sibling: it leads, and a resumed leader
	// publishes nothing.
	if !strings.Contains(string(stderr), "instrep: 0 of 1 cells replayed from a sibling's census verdicts") {
		t.Errorf("replay log line missing:\n%s", stderr)
	}
	// The finished cell's snapshot is gone: nothing to resume twice.
	if keys := store.Keys(); len(keys) != 0 {
		t.Errorf("completed cell left snapshots behind: %v", keys)
	}
}
