package core_test

// Tests for the resilience layer: cancellation, per-workload timeout,
// deadman watchdog, panic recovery, and injected simulator faults, each
// yielding a well-formed partial (Truncated) report. Run under -race
// via the Makefile `race` target; the watchdog and timeout paths
// exercise the cross-goroutine progress publication.

import (
	"context"
	"errors"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/minic"
	"repro/internal/program"
)

// loopImage compiles a long-running but terminating program: enough
// instructions for mid-window aborts, small enough to finish fast when
// nothing is injected.
func loopImage(t *testing.T) *program.Image {
	t.Helper()
	im, err := minic.Compile(`
int main() {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 2000000; i++) {
		sum = sum + (i & 7);
	}
	return sum & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// checkPartial asserts a truncated report is well-formed: flagged,
// reason set, and with metrics attached so -metrics still renders it.
func checkPartial(t *testing.T, r *core.Report, reason string) {
	t.Helper()
	if r == nil {
		t.Fatal("truncated run must still return a partial report")
	}
	if !r.Truncated {
		t.Error("partial report not flagged Truncated")
	}
	if r.TruncatedReason != reason {
		t.Errorf("TruncatedReason = %q, want %q", r.TruncatedReason, reason)
	}
	if r.Metrics == nil {
		t.Error("partial report lost its run metrics")
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := core.Run(ctx, loopImage(t), nil, "canceled", core.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkPartial(t, r, core.ReasonCanceled)
	if r.MeasuredInstructions != 0 {
		t.Errorf("pre-canceled run measured %d instructions", r.MeasuredInstructions)
	}
}

func TestRunCanceledMidWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := core.Config{
		// One chunk per progress callback: cancel after the first.
		Progress: func(p core.Progress) {
			if p.Done > 0 {
				cancel()
			}
		},
	}
	r, err := core.Run(ctx, loopImage(t), nil, "midcancel", cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkPartial(t, r, core.ReasonCanceled)
	if r.MeasuredInstructions == 0 {
		t.Error("mid-window cancel should keep the instructions measured so far")
	}
	if r.ProgramExited {
		t.Error("canceled run cannot have run to completion")
	}
}

func TestRunTimeout(t *testing.T) {
	cfg := core.Config{
		Timeout: 30 * time.Millisecond,
		Faults:  faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SlowStep, At: 1000, Delay: time.Hour}),
	}
	r, err := core.Run(context.Background(), loopImage(t), nil, "slow", cfg)
	var te *core.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Benchmark != "slow" || te.Limit != cfg.Timeout {
		t.Errorf("TimeoutError = %+v", te)
	}
	checkPartial(t, r, core.ReasonTimeout)
}

func TestRunWatchdog(t *testing.T) {
	cfg := core.Config{
		WatchdogInterval: 50 * time.Millisecond,
		Faults:           faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SlowStep, At: 5000, Delay: time.Hour}),
	}
	start := time.Now()
	r, err := core.Run(context.Background(), loopImage(t), nil, "wedged", cfg)
	var we *core.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WatchdogError", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("watchdog took %v to abort an hour-long stall", elapsed)
	}
	if we.Benchmark != "wedged" {
		t.Errorf("WatchdogError.Benchmark = %q", we.Benchmark)
	}
	// The default config has no skip, so At=5000 lands in measure.
	if we.Phase != "measure" {
		t.Errorf("WatchdogError.Phase = %q, want measure", we.Phase)
	}
	// The run loop stops exactly at the stall's stop point and
	// publishes there, so the diagnostic names the exact retire count.
	if we.Retired != 5000 {
		t.Errorf("WatchdogError.Retired = %d, want exactly 5000", we.Retired)
	}
	if !strings.Contains(we.Error(), "pc=0x") {
		t.Errorf("watchdog diagnostic lacks a PC: %v", we)
	}
	checkPartial(t, r, core.ReasonWatchdog)
}

func TestRunWatchdogPassesHealthyRun(t *testing.T) {
	cfg := core.Config{WatchdogInterval: 30 * time.Second}
	r, err := core.Run(context.Background(), loopImage(t), nil, "healthy", cfg)
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if r.Truncated {
		t.Error("healthy run flagged Truncated")
	}
	if !r.ProgramExited {
		t.Error("program should have exited")
	}
}

func TestRunRecoversObserverPanic(t *testing.T) {
	cfg := core.Config{
		Faults: faultinject.NewPlan(faultinject.Fault{Kind: faultinject.ObserverPanic, At: 50_000, Message: "injected"}),
	}
	r, err := core.Run(context.Background(), loopImage(t), nil, "panicky", cfg)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Benchmark != "panicky" || pe.Value != "injected" {
		t.Errorf("PanicError = %q / %v", pe.Benchmark, pe.Value)
	}
	// The panic fires in the fault stage's pass over a flushed batch.
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panicAt") {
		t.Errorf("panic stack does not cover the panic site:\n%s", pe.Stack)
	}
	if r != nil {
		checkPartial(t, r, core.ReasonPanic)
	}
}

// TestPanicRecoveryUnderGCPressure repeats the observer-panic run with
// the collector running almost continuously and a fresh fault plan per
// run, so the previous run's plan is garbage. If the partial report is
// assembled inside the deferred recover, with the panicking frames
// still on the stack, the heap is corrupted within a few runs and the
// runtime aborts with "found pointer to free object".
func TestPanicRecoveryUnderGCPressure(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	im := loopImage(t)
	for i := 0; i < 50; i++ {
		cfg := core.Config{
			MeasureInstructions: 60_000,
			Faults:              faultinject.NewPlan(faultinject.Fault{Kind: faultinject.ObserverPanic, At: 50_000}),
		}
		r, err := core.Run(context.Background(), im, nil, "panicky", cfg)
		var pe *core.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v, want *PanicError", i, err)
		}
		checkPartial(t, r, core.ReasonPanic)
	}
}

func TestRunSimFaultTruncatesAtCount(t *testing.T) {
	const at = 80_000
	cfg := core.Config{
		Faults: faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SimFault, At: at}),
	}
	r, err := core.Run(context.Background(), loopImage(t), nil, "faulted", cfg)
	if err == nil || !strings.Contains(err.Error(), "faultinject") {
		t.Fatalf("err = %v, want injected simulator fault", err)
	}
	checkPartial(t, r, core.ReasonFault)
	if r.MeasuredInstructions != at {
		t.Errorf("measured %d instructions, want exactly %d (fault at retire count %d)",
			r.MeasuredInstructions, at, at)
	}
}

func TestTruncationReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{context.Canceled, core.ReasonCanceled},
		{context.DeadlineExceeded, core.ReasonTimeout},
		{&core.TimeoutError{Benchmark: "b"}, core.ReasonTimeout},
		{&core.WatchdogError{Benchmark: "b"}, core.ReasonWatchdog},
		{&core.PanicError{Benchmark: "b"}, core.ReasonPanic},
		{errors.New("anything else"), core.ReasonFault},
	}
	for _, c := range cases {
		if got := core.TruncationReason(c.err); got != c.want {
			t.Errorf("TruncationReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
