package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if err := p.CompileError("any"); err != nil {
		t.Errorf("nil plan CompileError = %v", err)
	}
	s := p.Stops("any")
	if s != nil {
		t.Error("nil plan Stops must be nil")
	}
	if at, ok := s.Next(0); ok {
		t.Errorf("nil Stops has a stop point at %d", at)
	}
	if err := s.Apply(context.Background(), 0, 0); err != nil {
		t.Errorf("nil Stops Apply = %v", err)
	}
	if o := p.Observer("any"); o != nil {
		t.Error("nil plan Observer must be nil")
	}
}

func TestCompileError(t *testing.T) {
	p := NewPlan(Fault{Kind: CompileFail, Workload: "lzw", Message: "boom"})
	if err := p.CompileError("jpeg"); err != nil {
		t.Errorf("fault scoped to lzw fired for jpeg: %v", err)
	}
	err := p.CompileError("lzw")
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("CompileError = %v, want injected message", err)
	}
	// Empty Workload matches every workload.
	any := NewPlan(Fault{Kind: CompileFail})
	if any.CompileError("whatever") == nil {
		t.Error("unscoped compile fault must fire for every workload")
	}
}

func TestSimFaultFiresAtExactCount(t *testing.T) {
	p := NewPlan(Fault{Kind: SimFault, At: 5}, Fault{Kind: SimFault, Workload: "other", At: 2})
	s := p.Stops("w")
	if len(s) != 1 {
		t.Fatalf("Stops = %v, want the one fault for w", s)
	}
	for count := uint64(0); count <= 5; count++ {
		if at, ok := s.Next(count); !ok || at != 5 {
			t.Fatalf("Next(%d) = %d, %v; want 5, true", count, at, ok)
		}
	}
	if at, ok := s.Next(6); ok {
		t.Errorf("Next(6) = %d past the only fault", at)
	}
	if err := s.Apply(context.Background(), 4, 0x1000); err != nil {
		t.Fatalf("Apply fired early at count 4: %v", err)
	}
	err := s.Apply(context.Background(), 5, 0x1234)
	if err == nil || !strings.Contains(err.Error(), "faultinject: pc=0x1234") {
		t.Errorf("Apply(5) = %v, want fault naming the PC", err)
	}
}

// TestSlowStepStopsAtEveryLaterCount pins the stop-point schedule the
// run loop follows: the earliest pending fault wins, and once a
// SlowStep fault is reached every count is a stop point.
func TestSlowStepStopsAtEveryLaterCount(t *testing.T) {
	s := NewPlan(
		Fault{Kind: SlowStep, At: 10, Delay: time.Nanosecond},
		Fault{Kind: SimFault, At: 20},
	).Stops("w")
	for _, c := range []struct{ count, want uint64 }{{0, 10}, {10, 10}, {11, 11}, {20, 20}, {25, 25}} {
		if at, ok := s.Next(c.count); !ok || at != c.want {
			t.Errorf("Next(%d) = %d, %v; want %d", c.count, at, ok, c.want)
		}
	}
	if err := s.Apply(context.Background(), 15, 0); err != nil {
		t.Errorf("Apply(15) = %v, want a stall then nil", err)
	}
	if err := s.Apply(context.Background(), 20, 0); err == nil {
		t.Error("Apply(20) must return the SimFault after the stall")
	}
	if NewPlan(Fault{Kind: ObserverPanic}, Fault{Kind: CompileFail}).Stops("w") != nil {
		t.Error("observer and compile faults are not stop points")
	}
}

func TestSlowStepIsCancellable(t *testing.T) {
	s := NewPlan(Fault{Kind: SlowStep, Delay: time.Hour}).Stops("w")
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("aborted by test")
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel(sentinel)
	}()
	start := time.Now()
	err := s.Apply(ctx, 0, 0)
	if !errors.Is(err, sentinel) {
		t.Errorf("stalled stop point returned %v, want the cancel cause", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall ignored cancellation for %v", elapsed)
	}
}

func TestObserverPanics(t *testing.T) {
	p := NewPlan(Fault{Kind: ObserverPanic, At: 2, Message: "kaboom"})
	o := p.Observer("w")
	if o == nil {
		t.Fatal("expected an observer")
	}
	o.OnInst(&cpu.Event{Index: 1}) // must not panic
	defer func() {
		pv := recover()
		if pv == nil {
			t.Fatal("observer did not panic at its index")
		}
		if s, ok := pv.(string); !ok || s != "kaboom" {
			t.Errorf("panic value = %v, want injected message", pv)
		}
	}()
	o.OnInst(&cpu.Event{Index: 2})
}
