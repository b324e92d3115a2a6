package core

// Resilience support for the run path: the cancel-cause plumbing that
// runPhase checks between chunks, the deadman watchdog that aborts a
// wedged run with a PC/phase diagnostic, the error taxonomy
// (timeout / watchdog / panic) that classifies truncated reports, and
// the panic-to-error conversion shared with repro's workload
// goroutines. See DESIGN.md §11.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TimeoutError reports a per-workload wall-clock timeout abort
// (Config.Timeout).
type TimeoutError struct {
	Benchmark string
	Limit     time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%s: run exceeded timeout %v", e.Benchmark, e.Limit)
}

// WatchdogError reports a deadman-watchdog abort: the run loop
// published no retire progress for a full watchdog interval
// (Config.WatchdogInterval). Phase, retire count, and PC locate where
// the run wedged.
type WatchdogError struct {
	Benchmark string
	Phase     string
	Retired   uint64
	PC        uint32
	Stall     time.Duration

	// Last-checkpoint diagnostics, filled when the run wrote at least
	// one snapshot before wedging: a resume would restart there.
	LastCheckpointRetired uint64
	LastCheckpointAge     time.Duration
}

func (e *WatchdogError) Error() string {
	s := fmt.Sprintf("%s: watchdog: no retire progress for %v in %s phase (retired=%d, pc=0x%x)",
		e.Benchmark, e.Stall.Round(time.Millisecond), e.Phase, e.Retired, e.PC)
	if e.LastCheckpointAge > 0 || e.LastCheckpointRetired > 0 {
		s += fmt.Sprintf("; last checkpoint %v ago at retired=%d",
			e.LastCheckpointAge.Round(time.Millisecond), e.LastCheckpointRetired)
	}
	return s
}

// PanicError is a panic recovered from a workload run (simulator,
// observer, or compilation), converted into a per-workload error so
// one panicking workload fails one report instead of the process. The
// captured stack covers the panic site.
type PanicError struct {
	Benchmark string
	Value     any
	Stack     []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: recovered panic: %v\n%s", e.Benchmark, e.Value, e.Stack)
}

// NewPanicError wraps a recovered panic value. It must be called from
// inside the deferred function that recovered, so the captured stack
// still includes the panic site. A panic an observer helper pass raised
// and the run goroutine re-raised keeps the value and the stack the
// helper captured at its panic site.
func NewPanicError(benchmark string, v any) *PanicError {
	if hp, ok := v.(*helperPanic); ok {
		return &PanicError{Benchmark: benchmark, Value: hp.value, Stack: hp.stack}
	}
	return &PanicError{Benchmark: benchmark, Value: v, Stack: debug.Stack()}
}

// Truncation reasons recorded on partial reports.
const (
	ReasonCanceled = "canceled"
	ReasonTimeout  = "timeout"
	ReasonWatchdog = "watchdog"
	ReasonPanic    = "panic"
	ReasonFault    = "fault"
)

// TruncationReason classifies the error that cut a run short into one
// of the Reason* constants (Report.TruncatedReason).
func TruncationReason(err error) string {
	var pe *PanicError
	var we *WatchdogError
	var te *TimeoutError
	switch {
	case errors.As(err, &pe):
		return ReasonPanic
	case errors.As(err, &we):
		return ReasonWatchdog
	case errors.As(err, &te), errors.Is(err, context.DeadlineExceeded):
		return ReasonTimeout
	case errors.Is(err, context.Canceled):
		return ReasonCanceled
	default:
		return ReasonFault
	}
}

// recordTruncation bumps the run's health counters for one truncated
// run. Recovered panics are counted at their recovery site, not here,
// so a panic-truncated run is not double-counted.
func recordTruncation(h *obs.HealthCounters, reason string) {
	h.TruncatedRuns.Inc()
	switch reason {
	case ReasonCanceled:
		h.Cancels.Inc()
	case ReasonTimeout:
		h.Timeouts.Inc()
	case ReasonWatchdog:
		h.Watchdogs.Inc()
	}
}

// runState is the progress the run loop publishes: retire count and PC
// at the last checkpoint, plus the current phase and when it started —
// read by the watchdog (stall detection) and by RunRegistry snapshots
// (live introspection with a phase-relative retire rate). Checkpoints
// come from runChunk after every sub-chunk and fault stop point.
type runState struct {
	benchmark string
	traceID   string
	started   time.Time
	retired   atomic.Uint64
	pc        atomic.Uint32
	phase     atomic.Pointer[string]
	// Phase-relative baseline for the live MIPS estimate: the retire
	// count and wall clock at the last setPhase.
	phaseStartNS atomic.Int64 // UnixNano of phase start
	phaseBase    atomic.Uint64
	// Last snapshot written (retire count and UnixNano), published by
	// the checkpoint writer so watchdog diagnostics can say how much a
	// resume would recover. Zero until the first write.
	ckRetired atomic.Uint64
	ckAtNS    atomic.Int64
}

// publishCheckpoint records a completed snapshot write.
func (st *runState) publishCheckpoint(retired uint64) {
	st.ckRetired.Store(retired)
	st.ckAtNS.Store(time.Now().UnixNano())
}

func newRunState(benchmark string) *runState {
	st := &runState{benchmark: benchmark, started: time.Now()}
	st.setPhase("load")
	return st
}

func (st *runState) publish(retired uint64, pc uint32) {
	st.retired.Store(retired)
	st.pc.Store(pc)
}

func (st *runState) setPhase(phase string) {
	st.phase.Store(&phase)
	st.phaseBase.Store(st.retired.Load())
	st.phaseStartNS.Store(time.Now().UnixNano())
}

func (st *runState) phaseName() string {
	if p := st.phase.Load(); p != nil {
		return *p
	}
	return "?"
}

// watch starts the deadman watchdog: when the run loop publishes no
// retire progress for a full interval, it cancels the run with a
// *WatchdogError diagnosing where it wedged. The returned stop
// function terminates the watchdog goroutine; it is safe to call
// after the context already ended.
func watch(ctx context.Context, cancel context.CancelCauseFunc, st *runState, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	tick := interval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		tk := time.NewTicker(tick)
		defer tk.Stop()
		last := st.retired.Load()
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tk.C:
				cur := st.retired.Load()
				if cur != last {
					last, lastChange = cur, time.Now()
					continue
				}
				if stall := time.Since(lastChange); stall >= interval {
					we := &WatchdogError{
						Benchmark: st.benchmark,
						Phase:     st.phaseName(),
						Retired:   cur,
						PC:        st.pc.Load(),
						Stall:     stall,
					}
					if at := st.ckAtNS.Load(); at != 0 {
						we.LastCheckpointRetired = st.ckRetired.Load()
						we.LastCheckpointAge = time.Since(time.Unix(0, at))
					}
					cancel(we)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// cause returns the context's cancel cause (the watchdog/timeout
// error when one fired), falling back to the plain context error.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}
