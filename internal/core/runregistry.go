package core

// RunRegistry: live introspection over in-flight simulations. Run
// registers its runState (the same atomics the watchdog reads) when
// Config.Runs is set, so the report server's GET /debug/runs and the
// CLI's -progress can list what is executing right now — workload,
// phase, retired instructions, and a phase-relative retire rate —
// without touching the run loop's hot path. See DESIGN.md §14.

import (
	"sort"
	"sync"
	"time"
)

// RunInfo is one in-flight run as seen by a RunRegistry snapshot.
type RunInfo struct {
	ID        uint64  `json:"id"`
	Benchmark string  `json:"benchmark"`
	TraceID   string  `json:"trace_id,omitempty"`
	Phase     string  `json:"phase"`
	Retired   uint64  `json:"retired"`
	PC        uint32  `json:"pc"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Elapsed   string  `json:"elapsed"`
	MIPS      float64 `json:"mips"` // retire rate over the current phase
}

// RunRegistry tracks in-flight runs. Safe for concurrent use; the zero
// value is not ready — use NewRunRegistry.
type RunRegistry struct {
	mu   sync.Mutex
	seq  uint64
	runs map[uint64]*runState
}

// NewRunRegistry builds an empty registry.
func NewRunRegistry() *RunRegistry {
	return &RunRegistry{runs: make(map[uint64]*runState)}
}

// add registers a run and returns its registry ID.
func (r *RunRegistry) add(st *runState) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.runs[r.seq] = st
	return r.seq
}

// remove deregisters a finished run. A nil registry or unknown ID is a
// no-op.
func (r *RunRegistry) remove(id uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.runs, id)
	r.mu.Unlock()
}

// Snapshot lists the in-flight runs, oldest first (registration
// order). The retire counts and MIPS are read from the runs' published
// checkpoints, so they trail the simulator by at most one sub-chunk
// (2^14 instructions).
func (r *RunRegistry) Snapshot() []RunInfo {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	out := make([]RunInfo, 0, len(r.runs))
	for id, st := range r.runs {
		retired := st.retired.Load()
		elapsed := now.Sub(st.started)
		info := RunInfo{
			ID:        id,
			Benchmark: st.benchmark,
			TraceID:   st.traceID,
			Phase:     st.phaseName(),
			Retired:   retired,
			PC:        st.pc.Load(),
			ElapsedNS: elapsed.Nanoseconds(),
			Elapsed:   elapsed.Round(time.Millisecond).String(),
		}
		if phaseSecs := float64(now.UnixNano()-st.phaseStartNS.Load()) / 1e9; phaseSecs > 0 {
			info.MIPS = float64(retired-st.phaseBase.Load()) / phaseSecs / 1e6
		}
		out = append(out, info)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
