// Package faultinject provides deterministic, test-injectable fault
// points for the run path. A Plan is a static list of faults, each
// firing at an exact place (a workload's compilation, a retire count
// in the simulator, an observer callback) so that a faulted run is as
// reproducible as a clean one. The resilience tests drive every
// degradation path in internal/core through this package: compile
// failures, simulator faults mid-window, observer panics, and slow or
// fully stalled steps that the deadman watchdog must catch.
//
// Plans are wired into a run via core.Config.Faults and consulted at
// three sites:
//
//   - compilation (repro.RunWorkload / repro.RunSource): CompileError
//   - the run loop's stop points (core's sub-chunk loop): Stops
//   - instruction observation (cpu.Machine.Attach): Observer
//
// Stop points do not intercept the simulator: the run loop runs the
// machine exactly up to each point, on the same translated path
// production runs take, and applies the fault there. A nil *Plan is
// valid everywhere and injects nothing, so production paths carry no
// fault-injection cost beyond one nil check per sub-chunk.
package faultinject

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cpu"
)

// Kind selects a fault point.
type Kind int

const (
	// CompileFail makes the workload's compilation return an error.
	CompileFail Kind = iota
	// SimFault stops the run at retire count At with an error, as a
	// real fault (divide by zero, bad access) would: exactly At
	// instructions have retired and the machine is not halted.
	SimFault
	// ObserverPanic panics inside an attached observer when the
	// instruction with dynamic index At retires, exercising the
	// per-workload panic isolation.
	ObserverPanic
	// SlowStep stalls before every instruction from retire count At
	// on for Delay, simulating a wedged or runaway workload for the
	// watchdog. The stall is cancellation-aware: it aborts early with
	// the context's cause when the run is canceled.
	SlowStep
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case CompileFail:
		return "compile-fail"
	case SimFault:
		return "sim-fault"
	case ObserverPanic:
		return "observer-panic"
	case SlowStep:
		return "slow-step"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one injected fault.
type Fault struct {
	// Kind selects the fault point.
	Kind Kind
	// Workload restricts the fault to one workload name ("" matches
	// every workload).
	Workload string
	// At is the retire-count trigger for SimFault, ObserverPanic, and
	// SlowStep (the dynamic instruction index, 0-based).
	At uint64
	// Message overrides the default error/panic text.
	Message string
	// Delay is the per-step stall for SlowStep.
	Delay time.Duration
}

// message returns the fault's text, falling back to a default.
func (f Fault) message(def string) string {
	if f.Message != "" {
		return f.Message
	}
	return def
}

// Plan is a deterministic set of faults. The zero value and the nil
// plan inject nothing; Plan values are immutable after construction
// and safe for concurrent use across workload goroutines.
type Plan struct {
	faults []Fault
}

// NewPlan builds a plan from the given faults.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: append([]Fault(nil), faults...)}
}

// matches reports whether the fault applies to the workload.
func (f Fault) matches(workload string) bool {
	return f.Workload == "" || f.Workload == workload
}

// CompileError returns the injected compile failure for a workload,
// or nil when none applies.
func (p *Plan) CompileError(workload string) error {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if f.Kind == CompileFail && f.matches(workload) {
			return fmt.Errorf("faultinject: %s: %s", workload, f.message("injected compile failure"))
		}
	}
	return nil
}

// Stops is a workload's SimFault and SlowStep faults as stop points of
// the run loop, which runs the machine exactly to the retire count Next
// returns and calls Apply there before retiring the next instruction.
// An empty Stops has no stop points.
type Stops []Fault

// Stops collects the workload's SimFault and SlowStep faults (nil when
// none apply).
func (p *Plan) Stops(workload string) Stops {
	if p == nil {
		return nil
	}
	var sel Stops
	for _, f := range p.faults {
		if (f.Kind == SimFault || f.Kind == SlowStep) && f.matches(workload) {
			sel = append(sel, f)
		}
	}
	return sel
}

// Next returns the first stop point at or after retire count count,
// and false when none remains. Once a SlowStep fault's At is reached,
// every later count is a stop point.
func (s Stops) Next(count uint64) (uint64, bool) {
	var next uint64
	found := false
	for _, f := range s {
		at := f.At
		if f.Kind == SlowStep {
			at = max(at, count)
		}
		if at >= count && (!found || at < next) {
			next, found = at, true
		}
	}
	return next, found
}

// Apply fires the faults due at retire count count, with pc the address
// of the instruction about to retire: a SimFault returns its error, and
// a SlowStep stalls for its Delay. The stall is interruptible through
// ctx, returning the context's cause, so a watchdog or timeout abort is
// not itself blocked by the injected stall.
func (s Stops) Apply(ctx context.Context, count uint64, pc uint32) error {
	for _, f := range s {
		switch f.Kind {
		case SimFault:
			if count == f.At {
				return fmt.Errorf("faultinject: pc=0x%x: %s", pc, f.message("injected simulator fault"))
			}
		case SlowStep:
			if count >= f.At {
				t := time.NewTimer(f.Delay)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return cause(ctx)
				}
			}
		}
	}
	return nil
}

// Observer returns an observer that panics at the configured retire
// count for the workload, or nil when no ObserverPanic fault applies.
func (p *Plan) Observer(workload string) cpu.Observer {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if f.Kind == ObserverPanic && f.matches(workload) {
			return &panicObserver{at: f.At, msg: f.message("injected observer panic")}
		}
	}
	return nil
}

// panicObserver panics when the instruction with index at retires.
type panicObserver struct {
	at  uint64
	msg string
}

func (o *panicObserver) OnInst(ev *cpu.Event) {
	if ev.Index == o.at {
		panic(o.msg)
	}
}

// cause returns the context's cancel cause, falling back to its plain
// error.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}
