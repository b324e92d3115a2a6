package core_test

// Checkpoint/restore acceptance at the core run path: a run
// interrupted at a chunk boundary and resumed from its snapshot must
// produce a canonical report byte-identical to an uninterrupted run,
// through every phase and observer; snapshots that fail validation
// fall back to a fresh run with the same bytes.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/local"
	"repro/internal/minic"
	"repro/internal/program"
	"repro/internal/repetition"
	"repro/internal/vprofile"
)

// checkpointTestProgram runs ~1.6M instructions so the run crosses
// several 256k-instruction chunk boundaries in both phases.
const checkpointTestProgram = `
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int lookup(int i) { return table[i & 15]; }
int main() {
	int sum;
	int i;
	int round;
	sum = 0;
	for (round = 0; round < 4000; round++) {
		for (i = 0; i < 16; i++) {
			sum += lookup(i);
		}
	}
	return sum & 255;
}`

func checkpointTestImage(t *testing.T) *program.Image {
	t.Helper()
	im, err := minic.Compile(checkpointTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func checkpointTestConfig() core.Config {
	return core.Config{SkipInstructions: 300_000, MeasureInstructions: 800_000}
}

func canonical(t *testing.T, r *core.Report) []byte {
	t.Helper()
	b, err := core.CanonicalJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptAndResume runs the test program with a policy that cancels
// the run right after the first snapshot written in the given phase,
// then resumes from that snapshot, returning the resumed report and
// the store.
func interruptAndResume(t *testing.T, im *program.Image, phase string) (*core.Report, *checkpoint.Store) {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cutAt uint64
	cfg := checkpointTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store,
		Key:   key,
		Every: 1, // due at every chunk boundary
		Notify: func(ev core.CheckpointEvent) {
			if !ev.Resumed && ev.Phase == phase && cutAt == 0 {
				cutAt = ev.Retired
				cancel()
			}
		},
	}
	rep, err := core.Run(ctx, im, nil, "ckpt", cfg)
	if err == nil {
		t.Fatalf("interrupted %s-phase run did not error", phase)
	}
	if cutAt == 0 {
		t.Fatalf("no snapshot was written in the %s phase", phase)
	}
	if rep == nil || !rep.Truncated {
		t.Fatalf("interrupted run: report = %+v", rep)
	}
	if rep.Checkpoint == nil || rep.Checkpoint.LastRetired != cutAt {
		t.Fatalf("truncated report checkpoint status = %+v, want LastRetired=%d",
			rep.Checkpoint, cutAt)
	}

	var resumedAt uint64
	cfg2 := checkpointTestConfig()
	cfg2.Checkpoint = &core.CheckpointPolicy{
		Store:  store,
		Key:    key,
		Resume: true,
		Notify: func(ev core.CheckpointEvent) {
			if ev.Resumed {
				resumedAt = ev.Retired
			}
		},
	}
	rep2, err := core.Run(context.Background(), im, nil, "ckpt", cfg2)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if resumedAt != cutAt {
		t.Errorf("resumed at %d retired, want %d (the interruption point)", resumedAt, cutAt)
	}
	if store.Stats.Resumes.Value() != 1 {
		t.Errorf("Resumes = %d, want 1", store.Stats.Resumes.Value())
	}
	return rep2, store
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	im := checkpointTestImage(t)
	straight, err := core.Run(context.Background(), im, nil, "ckpt", checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, straight)

	for _, phase := range []string{"skip", "measure"} {
		t.Run(phase, func(t *testing.T) {
			rep, store := interruptAndResume(t, im, phase)
			if got := canonical(t, rep); !bytes.Equal(got, want) {
				t.Errorf("resumed report diverged from the uninterrupted run (%d vs %d bytes)",
					len(got), len(want))
			}
			// A completed run leaves nothing to resume.
			if keys := store.Keys(); len(keys) != 0 {
				t.Errorf("snapshot survived a clean finish: %v", keys)
			}
		})
	}
}

// TestWindowEndWritesNoSnapshot pins the snapshot points under the
// densest pacing: every chunk boundary writes except the one that
// completes the measure window, which the run removes right after
// collecting. The skip phase (300k) crosses boundaries at 262,144 and
// 300,000 retired; the measure phase (800k) at 262,144, 524,288 and
// 786,432 more, then ends the window at 1,100,000 — five writes.
func TestWindowEndWritesNoSnapshot(t *testing.T) {
	im := checkpointTestImage(t)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointTestConfig()
	final := cfg.SkipInstructions + cfg.MeasureInstructions
	var written []uint64
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: "abc123", Every: 1,
		Notify: func(ev core.CheckpointEvent) {
			if !ev.Resumed {
				written = append(written, ev.Retired)
			}
		},
	}
	rep, err := core.Run(context.Background(), im, nil, "ckpt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProgramExited {
		t.Fatal("test program exited inside the window; the window end must be a budget boundary")
	}
	want := []uint64{262_144, 300_000, 562_144, 824_288, 1_086_432}
	if !slices.Equal(written, want) {
		t.Errorf("snapshots written at %v, want %v (never at the window end %d)", written, want, final)
	}
	if got := store.Stats.Writes.Value(); got != uint64(len(want)) {
		t.Errorf("Stats.Writes = %d, want %d interior boundaries", got, len(want))
	}
	if keys := store.Keys(); len(keys) != 0 {
		t.Errorf("snapshot survived a clean finish: %v", keys)
	}
}

// TestCorruptSnapshotFallsBackToFreshRun flips a byte in the snapshot
// on disk: the resume must reject it, count it, delete it, and run
// fresh — same canonical bytes, no panic, no wrong report.
func TestCorruptSnapshotFallsBackToFreshRun(t *testing.T) {
	im := checkpointTestImage(t)
	straight, err := core.Run(context.Background(), im, nil, "ckpt", checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, straight)

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := checkpointTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Every: 1,
		Notify: func(ev core.CheckpointEvent) { cancel() },
	}
	if _, err := core.Run(ctx, im, nil, "ckpt", cfg); err == nil {
		t.Fatal("interrupted run did not error")
	}

	path := filepath.Join(dir, key+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := checkpointTestConfig()
	var resumed bool
	cfg2.Checkpoint = &core.CheckpointPolicy{
		Store: store, Key: key, Resume: true,
		Notify: func(ev core.CheckpointEvent) { resumed = resumed || ev.Resumed },
	}
	rep, err := core.Run(context.Background(), im, nil, "ckpt", cfg2)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if resumed {
		t.Error("corrupt snapshot was resumed from")
	}
	if got := canonical(t, rep); !bytes.Equal(got, want) {
		t.Error("fallback run diverged from the uninterrupted run")
	}
	if store.Stats.Corrupt.Value() == 0 {
		t.Error("corrupt snapshot not counted")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("corrupt snapshot not deleted")
	}
}

// TestMismatchedPipelineRejectsResume restores a snapshot taken with
// every observer enabled into runs it does not fit: the snapshot body
// must reject it (the checkpoint key normally rules this out; the body
// is the second line of defense), and the run must start fresh.
func TestMismatchedPipelineRejectsResume(t *testing.T) {
	im := checkpointTestImage(t)
	// longer is the same program with one more (never executed) text
	// word, so every per-PC table it sizes is one entry longer.
	longer := *im
	longer.Text = append(slices.Clone(im.Text), isa.Inst{})
	noTaint := checkpointTestConfig()
	noTaint.DisableTaint = true
	for _, tc := range []struct {
		name string
		im   *program.Image
		cfg  core.Config
	}{
		{"taint disabled", im, noTaint},
		{"text one word longer", &longer, checkpointTestConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = "abc123"
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := checkpointTestConfig()
			cfg.Checkpoint = &core.CheckpointPolicy{
				Store: store, Key: key, Every: 1,
				Notify: func(ev core.CheckpointEvent) { cancel() },
			}
			if _, err := core.Run(ctx, im, nil, "ckpt", cfg); err == nil {
				t.Fatal("interrupted run did not error")
			}

			straight, err := core.Run(context.Background(), tc.im, nil, "ckpt", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			cfg2 := tc.cfg
			var resumed bool
			cfg2.Checkpoint = &core.CheckpointPolicy{
				Store: store, Key: key, Resume: true,
				Notify: func(ev core.CheckpointEvent) { resumed = resumed || ev.Resumed },
			}
			rep, err := core.Run(context.Background(), tc.im, nil, "ckpt", cfg2)
			if err != nil {
				t.Fatalf("fallback run failed: %v", err)
			}
			if resumed {
				t.Error("mismatched snapshot was resumed from")
			}
			if store.Stats.ResumeRejected.Value() != 1 {
				t.Errorf("ResumeRejected = %d, want 1", store.Stats.ResumeRejected.Value())
			}
			if !bytes.Equal(canonical(t, rep), canonical(t, straight)) {
				t.Error("fallback run diverged from a fresh run with the same config")
			}
		})
	}
}

// TestPerPCTablesRejectOtherTextLength restores the snapshot of each
// analysis with a per-PC table into a fresh one built from the same
// image, then from an image one text word longer: the tables are sized
// from the image, so only the first fits. (A whole-pipeline resume
// stops at the census, the first table in the body, before it reads the
// others.)
func TestPerPCTablesRejectOtherTextLength(t *testing.T) {
	im := checkpointTestImage(t)
	longer := *im
	longer.Text = append(slices.Clone(im.Text), isa.Inst{})
	type table interface {
		SnapshotTo(w *checkpoint.Writer)
		RestoreFrom(r *checkpoint.Reader) error
	}
	for _, tc := range []struct {
		name string
		mk   func(*program.Image) table
	}{
		{"repetition", func(im *program.Image) table { return repetition.NewTracker(im.StaticInstructions()) }},
		{"local", func(im *program.Image) table { return local.New(im) }},
		{"vprofile", func(im *program.Image) table { return vprofile.New(im.StaticInstructions()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w checkpoint.Writer
			tc.mk(im).SnapshotTo(&w)
			if err := tc.mk(im).RestoreFrom(checkpoint.NewReader(w.Bytes())); err != nil {
				t.Fatalf("restore into the same image: %v", err)
			}
			if err := tc.mk(&longer).RestoreFrom(checkpoint.NewReader(w.Bytes())); !errors.Is(err, checkpoint.ErrMalformed) {
				t.Errorf("restore into a longer text: err = %v, want ErrMalformed", err)
			}
		})
	}
}
