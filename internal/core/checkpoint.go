package core

// Checkpoint/restore wiring for the run path: CheckpointPolicy tells
// Run when to snapshot the complete simulation state (machine +
// every observer + phase bookkeeping) at chunk boundaries, and
// whether to resume from an existing snapshot instead of starting
// over. The snapshot body layout is versioned by
// checkpoint.FormatVersion; the envelope and on-disk atomicity live
// in internal/checkpoint. See DESIGN.md §16.

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// DefaultCheckpointInterval is the wall-clock snapshot period of a
// policy without a count pacer (Every == 0). Snapshots of a full-window
// run cost ~100ms each (tens of MB of tracker + memory state serialized,
// hashed, and written), so pacing by wall clock is what keeps the
// overhead bounded regardless of window size: one write per 15s is
// <1% of retire rate on any run long enough to need checkpointing,
// and a short run that finishes inside the interval pays nothing.
// Count-based pacing (Every) remains available when a test or tool
// needs deterministic snapshot points.
const DefaultCheckpointInterval = 15 * time.Second

// CheckpointPolicy tells Run when and where to snapshot. The zero
// value (and a nil pointer) disables checkpointing entirely. Snapshots
// land only on chunk boundaries, and never on the boundary that
// completes the measure window: a finished run removes its snapshot, so
// one written there could never be resumed.
type CheckpointPolicy struct {
	// Store receives the snapshots (required to enable the policy).
	Store *checkpoint.Store
	// Key identifies the run — the result-cache fingerprint, so a
	// snapshot can only ever be resumed by a byte-identical
	// (workload, config, version) run.
	Key string
	// Every is a retire-count pacer: a snapshot lands on the first
	// chunk boundary at or past every N retired instructions.
	// Deterministic, so tests use it to pin snapshot points. 0 paces by
	// wall clock instead: a snapshot lands on the first chunk boundary
	// after each DefaultCheckpointInterval.
	Every uint64
	// Resume makes Run look for a snapshot under Key at startup and
	// continue from it. A snapshot that fails validation is counted,
	// deleted, and ignored — the run starts fresh.
	Resume bool
	// Notify, when set, receives one event per resume and per
	// snapshot written (CLI notices, deterministic-interruption
	// tests). Called synchronously from the run loop.
	Notify func(CheckpointEvent)
}

// enabled reports whether the policy can snapshot at all.
func (cp *CheckpointPolicy) enabled() bool {
	return cp != nil && cp.Store != nil && cp.Key != ""
}

// CheckpointEvent describes one checkpoint action during a run.
type CheckpointEvent struct {
	Benchmark string
	// Resumed is true for the startup resume notification, false for
	// a snapshot write.
	Resumed bool
	// Retired is the machine's total retire count at the snapshot.
	Retired uint64
	// Phase is the run phase ("skip" or "measure") at the snapshot.
	Phase string
	// Bytes is the encoded snapshot size (writes only).
	Bytes int
}

// CheckpointStatus is the checkpoint summary attached to truncated
// reports: what a resume would recover. Only present when the run was
// cut short while a policy was active.
type CheckpointStatus struct {
	// LastRetired is the machine retire count at the newest snapshot
	// (0 = no snapshot exists; a resume would start over).
	LastRetired uint64
	// AgeMS is how long before the cut that snapshot was written, in
	// milliseconds (wall clock; 0 when no snapshot exists).
	AgeMS int64 `json:",omitempty"`
}

// Snapshot phase codes (the body's phase bookkeeping).
const (
	phaseCodeSkip    = 0
	phaseCodeMeasure = 1
)

// snapshotBody encodes the complete run state: phase bookkeeping,
// then the machine, then the pipeline. The pipeline is drained first
// so no buffered-but-unobserved events exist; flush boundaries don't
// alter any statistic (every observer sees the same ordered stream),
// so the extra flush keeps resumed and uninterrupted runs
// byte-identical.
func (ck *ckState) snapshotBody(phase string, skipped, measured uint64) []byte {
	var w checkpoint.Writer
	code := uint8(phaseCodeSkip)
	if phase == "measure" {
		code = phaseCodeMeasure
	}
	w.U8(code)
	w.U64(skipped)
	w.U64(measured)
	ck.m.SnapshotTo(&w)
	ck.p.snapshotTo(&w)
	return w.Bytes()
}

// resumeState is the phase bookkeeping recovered from a snapshot.
type resumeState struct {
	phase    string
	skipped  uint64
	measured uint64
	retired  uint64
}

// restoreBody rebuilds machine and pipeline state from a snapshot
// body. On any validation failure the machine/pipeline are unusable
// and the caller must rebuild them before running fresh.
func restoreBody(body []byte, ck *ckState) (resumeState, error) {
	r := checkpoint.NewReader(body)
	var rs resumeState
	switch r.U8() {
	case phaseCodeSkip:
		rs.phase = "skip"
	case phaseCodeMeasure:
		rs.phase = "measure"
	default:
		return rs, checkpoint.ErrMalformed
	}
	rs.skipped = r.U64()
	rs.measured = r.U64()
	if err := ck.m.RestoreFrom(r); err != nil {
		return rs, err
	}
	if err := ck.p.restoreFrom(r); err != nil {
		return rs, err
	}
	if err := r.Err(); err != nil {
		return rs, err
	}
	if r.Remaining() != 0 {
		return rs, checkpoint.ErrMalformed
	}
	rs.retired = ck.m.Count
	return rs, nil
}

// analysis is the checkpoint surface every pipeline observer has.
type analysis interface {
	SnapshotTo(w *checkpoint.Writer)
	RestoreFrom(r *checkpoint.Reader) error
}

// optional lists the six optional analyses in snapshot order, with a
// nil entry for each one the config disabled.
func (p *Pipeline) optional() []analysis {
	return []analysis{opt(p.Taint), opt(p.Local), opt(p.Funcs), opt(p.Reuse), opt(p.VPred), opt(p.VProf)}
}

// opt boxes an analysis pointer, keeping a nil pointer nil.
func opt[T any, P interface {
	*T
	analysis
}](a P) analysis {
	if a == nil {
		return nil
	}
	return a
}

// snapshotTo writes every pipeline observer after draining the event
// batches: the census, then each optional analysis behind a presence
// flag, so a snapshot taken under one analysis config can never
// restore into another (the checkpoint key should already rule that
// out; this is the belt to its suspenders).
func (p *Pipeline) snapshotTo(w *checkpoint.Writer) {
	p.drain()
	p.Rep.SnapshotTo(w)
	for _, a := range p.optional() {
		w.Bool(a != nil)
		if a != nil {
			a.SnapshotTo(w)
		}
	}
}

// restoreFrom loads every observer's state into a freshly constructed
// pipeline (same image, same config). A presence mismatch means the
// snapshot was taken under a different analysis selection.
func (p *Pipeline) restoreFrom(r *checkpoint.Reader) error {
	if err := p.Rep.RestoreFrom(r); err != nil {
		return err
	}
	for _, a := range p.optional() {
		present := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if present != (a != nil) {
			return checkpoint.ErrMalformed
		}
		if present {
			if err := a.RestoreFrom(r); err != nil {
				return err
			}
		}
	}
	return r.Err()
}

// ckState carries the live checkpointing context through a run: the
// policy, the machine and pipeline to snapshot, the cumulative phase
// bookkeeping, and the due-tracking since the last snapshot.
type ckState struct {
	policy *CheckpointPolicy
	name   string
	span   *obs.Span // run root; snapshot writes become its children
	st     *runState

	m *cpu.Machine
	p *Pipeline

	// Cumulative instruction totals from a resumed snapshot; phase
	// progress adds to these.
	baseSkipped  uint64
	baseMeasured uint64

	lastRetired uint64    // machine retire count at the last snapshot
	lastAt      time.Time // when it was written
	wrote       bool      // at least one snapshot written this run
}

// atBoundary is runPhase's chunk-boundary hook (every boundary but the
// one that completes the measure window): done is this phase's
// progress, folded into the cumulative bases a resumed snapshot
// carried in.
func (ck *ckState) atBoundary(phase string, retired, done uint64) {
	if ck == nil {
		return
	}
	skipped, measured := ck.baseSkipped, ck.baseMeasured
	if phase == "skip" {
		skipped += done
	} else {
		measured += done
	}
	ck.maybeWrite(phase, retired, skipped, measured)
}

// due reports whether the policy calls for a snapshot at this retire
// count.
func (ck *ckState) due(retired uint64) bool {
	if every := ck.policy.Every; every > 0 {
		return retired >= ck.lastRetired+every
	}
	return time.Since(ck.lastAt) >= DefaultCheckpointInterval
}

// maybeWrite snapshots at a chunk boundary when the policy says one
// is due. skipped/measured are the cumulative totals at this
// boundary. Write failures are counted by the store and otherwise
// ignored — the run continues uncheckpointed rather than aborting.
func (ck *ckState) maybeWrite(phase string, retired, skipped, measured uint64) {
	if ck == nil || !ck.due(retired) {
		return
	}
	sp := ck.span.StartChild("checkpoint.write")
	body := ck.snapshotBody(phase, skipped, measured)
	data := len(body)
	err := ck.policy.Store.Write(ck.policy.Key, body)
	sp.SetAttr("bytes", data)
	sp.SetAttr("retired", retired)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if err != nil {
		return
	}
	ck.lastRetired = retired
	ck.lastAt = time.Now()
	ck.wrote = true
	if ck.st != nil {
		ck.st.publishCheckpoint(retired)
	}
	if ck.policy.Notify != nil {
		ck.policy.Notify(CheckpointEvent{
			Benchmark: ck.name, Retired: retired, Phase: phase, Bytes: data,
		})
	}
}

// status summarizes the newest snapshot for a truncated report.
func (ck *ckState) status() *CheckpointStatus {
	if ck == nil {
		return nil
	}
	s := &CheckpointStatus{}
	if ck.wrote {
		s.LastRetired = ck.lastRetired
		s.AgeMS = time.Since(ck.lastAt).Milliseconds()
	}
	return s
}
