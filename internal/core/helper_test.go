package core_test

// Tests for the observer helper: the CPU budget that arms it, the
// drain points that keep every report byte-identical to an inline run,
// the run that gives its helper up mid-window, and helper-side panics.
// `make differential` runs the TestHelper tests under -race -count=10.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/minic"
)

// spareCPU raises GOMAXPROCS, for the rest of the test, until a run
// started now can claim a second CPU for its helper.
func spareCPU(t *testing.T) {
	t.Helper()
	if n := core.ClaimedCPUs() + 2; runtime.GOMAXPROCS(0) < n {
		old := runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// holdOffHelper claims every CPU until release is called, so runs keep
// all their observer passes inline.
func holdOffHelper() (release func()) {
	claims := make([]func(), runtime.GOMAXPROCS(0))
	for i := range claims {
		claims[i] = core.ClaimCPU()
	}
	return func() {
		for _, release := range claims {
			release()
		}
	}
}

// checkReleased fails the test when a run left a CPU claim or a
// goroutine behind.
func checkReleased(t *testing.T, what string, cpus, goroutines int) {
	t.Helper()
	if n := core.ClaimedCPUs(); n != cpus {
		t.Errorf("%s: %d CPUs claimed after the run, want %d", what, n, cpus)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%s: %d goroutines after the run, want at most %d", what, n, goroutines)
	}
}

// helperTestConfig is a window of the checkpoint test program with one
// chunk boundary inside the measure phase, short enough to repeat under
// the race detector.
func helperTestConfig() core.Config {
	return core.Config{SkipInstructions: 50_000, MeasureInstructions: 300_000}
}

func armed(r *core.Report) bool {
	return r != nil && r.Metrics != nil && len(r.Metrics.ObserverHelper) > 0
}

// TestHelperMatchesInline runs the checkpoint test program with the
// helper armed and held off: the canonical reports are identical, and
// only the armed run names its helper stages.
func TestHelperMatchesInline(t *testing.T) {
	im := checkpointTestImage(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()
	spareCPU(t)
	withHelper, err := core.Run(context.Background(), im, nil, "helper", helperTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkReleased(t, "clean run", cpus, goroutines)
	if got := strings.Join(withHelper.Metrics.ObserverHelper, ","); got != "local,reuse,vpred,vprofile" {
		t.Errorf("armed run's helper stages = %q, want local,reuse,vpred,vprofile", got)
	}

	release := holdOffHelper()
	inline, err := core.Run(context.Background(), im, nil, "helper", helperTestConfig())
	release()
	if err != nil {
		t.Fatal(err)
	}
	if armed(inline) {
		t.Errorf("run with every CPU claimed armed a helper: %v", inline.Metrics.ObserverHelper)
	}
	if !bytes.Equal(canonical(t, withHelper), canonical(t, inline)) {
		t.Error("armed and inline reports differ")
	}

	// With every helper-side analysis off there is nothing to hand over.
	cfg := helperTestConfig()
	cfg.DisableLocal, cfg.DisableReuse, cfg.DisableVPred, cfg.DisableVProf = true, true, true, true
	r, err := core.Run(context.Background(), im, nil, "helper", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed(r) {
		t.Errorf("run with no helper-side pass armed a helper: %v", r.Metrics.ObserverHelper)
	}
}

// TestHelperGivesUpCPU claims every CPU in the middle of the measure
// window: the run hands its helper's CPU back at the next hand-off,
// finishes inline, and still reports the inline bytes.
func TestHelperGivesUpCPU(t *testing.T) {
	im := checkpointTestImage(t)
	release := holdOffHelper()
	ref, err := core.Run(context.Background(), im, nil, "helper", helperTestConfig())
	release()
	if err != nil {
		t.Fatal(err)
	}

	spareCPU(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()
	release = nil
	cfg := helperTestConfig()
	cfg.Progress = func(p core.Progress) {
		if p.Phase == "measure" && p.Done > 0 && release == nil {
			release = holdOffHelper()
		}
	}
	r, err := core.Run(context.Background(), im, nil, "helper", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if release == nil {
		t.Fatal("the measure phase reported no progress")
	}
	release()
	checkReleased(t, "run that gave up its helper", cpus, goroutines)
	if !armed(r) {
		t.Error("run never armed its helper")
	}
	if !bytes.Equal(canonical(t, r), canonical(t, ref)) {
		t.Error("run that gave up its helper differs from an inline run")
	}
}

// TestHelperPanic injects an observer panic, which runs on the helper:
// the run returns a *PanicError with the helper's stack and a partial
// report, and leaves neither its helper nor a CPU claim behind.
func TestHelperPanic(t *testing.T) {
	im := loopImage(t)
	spareCPU(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()
	cfg := core.Config{
		Faults: faultinject.NewPlan(faultinject.Fault{Kind: faultinject.ObserverPanic, At: 50_000, Message: "injected"}),
	}
	r, err := core.Run(context.Background(), im, nil, "panicky", cfg)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "injected" {
		t.Errorf("panic value = %v, want injected", pe.Value)
	}
	for _, frame := range []string{"panicAt", "(*helper).observe"} {
		if !strings.Contains(string(pe.Stack), frame) {
			t.Errorf("panic stack does not name %s:\n%s", frame, pe.Stack)
		}
	}
	checkPartial(t, r, core.ReasonPanic)
	if !armed(r) {
		t.Error("fault plan kept the helper off")
	}
	checkReleased(t, "recovered panic", cpus, goroutines)
}

// TestHelperPanicWhileGivingUpCPU injects an observer panic a few
// batches before the chunk boundary where every CPU gets claimed. With
// taint and funcanal off the helper has the heavier side and runs up to
// a ring behind, so the panicking batch is usually still queued when the
// run gives its helper up. The run must raise that panic rather than go
// on inline without the batches the failed helper dropped.
func TestHelperPanicWhileGivingUpCPU(t *testing.T) {
	im := checkpointTestImage(t)
	spareCPU(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()
	cfg := helperTestConfig()
	cfg.DisableTaint, cfg.DisableFunc = true, true
	const boundary = 50_000 + 1<<18 // the measure phase's first chunk boundary
	cfg.Faults = faultinject.NewPlan(faultinject.Fault{Kind: faultinject.ObserverPanic, At: boundary - 1000, Message: "queued"})
	var release func()
	cfg.Progress = func(p core.Progress) {
		if p.Phase == "measure" && p.Done > 0 && release == nil {
			release = holdOffHelper()
		}
	}
	r, err := core.Run(context.Background(), im, nil, "helper", cfg)
	if release != nil {
		release()
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "queued" {
		t.Errorf("panic value = %v, want queued", pe.Value)
	}
	checkPartial(t, r, core.ReasonPanic)
	if !armed(r) {
		t.Error("run never armed its helper")
	}
	checkReleased(t, "panic while giving up the helper", cpus, goroutines)
}

// TestHelperPanicBeforeWindow stops a run in its skip phase a few
// batches after a helper-side panic, so the panic is usually still
// queued when the run stops. It is raised before collection starts: the
// run has one collect span, not one the panic left open and a second
// from the retry.
func TestHelperPanicBeforeWindow(t *testing.T) {
	im := checkpointTestImage(t)
	spareCPU(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()
	cfg := helperTestConfig()
	cfg.DisableTaint, cfg.DisableFunc = true, true
	const stop = 40_000
	cfg.Faults = faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.ObserverPanic, At: stop - 1000, Message: "queued"},
		faultinject.Fault{Kind: faultinject.SimFault, At: stop},
	)
	r, err := core.Run(context.Background(), im, nil, "helper", cfg)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	checkPartial(t, r, core.ReasonPanic)
	collects := 0
	for _, ph := range r.Metrics.Phases.Children {
		if ph.Name == "collect" {
			collects++
		}
	}
	if collects != 1 {
		t.Errorf("run has %d collect spans, want 1", collects)
	}
	checkReleased(t, "panic before the window", cpus, goroutines)
}

// TestHelperReleasesOnEveryPath checks the CPU and goroutine counts
// after a truncated run and after a resume that fails validation and
// starts over.
func TestHelperReleasesOnEveryPath(t *testing.T) {
	im := checkpointTestImage(t)
	spareCPU(t)
	cpus, goroutines := core.ClaimedCPUs(), runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := helperTestConfig()
	cfg.Progress = func(p core.Progress) {
		if p.Phase == "measure" && p.Done > 0 {
			cancel()
		}
	}
	r, err := core.Run(ctx, im, nil, "helper", cfg)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkPartial(t, r, core.ReasonCanceled)
	if !armed(r) {
		t.Error("truncated run never armed its helper")
	}
	checkReleased(t, "truncated run", cpus, goroutines)

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "abc123"
	if err := store.Write(key, []byte{9}); err != nil { // an unknown phase code
		t.Fatal(err)
	}
	cfg = helperTestConfig()
	cfg.Checkpoint = &core.CheckpointPolicy{Store: store, Key: key, Resume: true}
	r, err = core.Run(context.Background(), im, nil, "helper", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats.ResumeRejected.Value() != 1 {
		t.Errorf("ResumeRejected = %d, want 1", store.Stats.ResumeRejected.Value())
	}
	if !armed(r) {
		t.Error("run after a failed resume never armed its helper")
	}
	checkReleased(t, "failed resume", cpus, goroutines)
}

// TestHelperConcurrentRuns runs several armed-or-not runs at once, so
// the CPU budget and the helpers are reached from several goroutines:
// every report equals the inline one and every claim is given back.
func TestHelperConcurrentRuns(t *testing.T) {
	im := loopImage(t)
	cfg := core.Config{MeasureInstructions: 100_000}
	release := holdOffHelper()
	ref, err := core.Run(context.Background(), im, nil, "concurrent", cfg)
	release()
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, ref)

	cpus := core.ClaimedCPUs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus + 3))
	reports := make([]*core.Report, 4)
	errs := make([]error, len(reports))
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = core.Run(context.Background(), im, nil, "concurrent", cfg)
		}(i)
	}
	wg.Wait()
	for i, r := range reports {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(canonical(t, r), want) {
			t.Errorf("run %d differs from the inline run", i)
		}
	}
	if n := core.ClaimedCPUs(); n != cpus {
		t.Errorf("%d CPUs claimed after the runs, want %d", n, cpus)
	}
}

// straightProgram runs 200 instructions at 200 distinct PCs before its
// first loop, so observing them costs several times what simulating
// them does.
var straightProgram = func() string {
	var b strings.Builder
	b.WriteString("int g[64];\nint main() {\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "\tg[%d] = g[%d] + %d;\n", i%64, i*7%64, i)
	}
	b.WriteString("\treturn g[3] & 255;\n}\n")
	return b.String()
}()

// TestMeasureSpanCoversLastBatch runs a window shorter than one batch
// with every pass timed and the helper held off. The window's events
// are observed when the run ends, which must happen inside the measure
// span, so the span lasts at least as long as the timed passes. The
// run is interpreted because translating straight-line code, which the
// translated path does inside the window, costs more than observing it.
func TestMeasureSpanCoversLastBatch(t *testing.T) {
	im, err := minic.Compile(straightProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer holdOffHelper()()
	cfg := core.Config{MeasureInstructions: 200, ObserverSampleEvery: 1, DisableTranslation: true}
	r, err := core.Run(context.Background(), im, nil, "window", cfg)
	if err != nil {
		t.Fatal(err)
	}
	measure := r.Metrics.Phases.Find("measure")
	if measure == nil {
		t.Fatal("no measure phase")
	}
	var passes int64
	for _, o := range r.Metrics.Observers {
		passes += o.SampledNS
	}
	if passes == 0 {
		t.Fatal("no observer pass was timed")
	}
	if measure.WallNS < passes {
		t.Errorf("measure phase %dns is shorter than the %dns of observer passes it should contain",
			measure.WallNS, passes)
	}
}
