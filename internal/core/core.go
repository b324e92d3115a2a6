// Package core wires the analyses together: it runs a program on the
// functional simulator with the repetition tracker, global (taint)
// analysis, function-level analysis, local analysis, and reuse buffer
// attached, and collects every table and figure of the paper into a
// Report.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/funcanal"
	"repro/internal/isa"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/repetition"
	"repro/internal/reuse"
	"repro/internal/taint"
	"repro/internal/vpred"
	"repro/internal/vprofile"
)

// Config controls one experiment run.
type Config struct {
	// SkipInstructions are executed before the analyses attach,
	// mirroring the paper's fast-forward past initialization.
	SkipInstructions uint64
	// MeasureInstructions bounds the analyzed window (0 = to
	// completion).
	MeasureInstructions uint64
	// MaxInstances is the per-static-instruction unique-instance
	// buffer limit (0 = the paper's 2000).
	MaxInstances int
	// ReuseEntries/ReuseAssoc size the reuse buffer (0 = the paper's
	// 8K, 4-way).
	ReuseEntries int
	ReuseAssoc   int
	// ReusePolicy selects the reuse buffer's replacement policy (the
	// zero value is reuse.LRU, the paper's; see internal/reuse). The
	// sweep engine varies it as a measurement axis.
	ReusePolicy reuse.Policy
	// VPredEntries sizes the value-predictor tables (0 = 8192).
	VPredEntries int
	// InputVariant selects the workload input data set (0 or 1 = the
	// standard inputs, 2+ = alternates) — the paper's input
	// sensitivity check (Section 3).
	InputVariant int
	// Analyses toggles; a zero Config enables everything.
	DisableTaint bool
	DisableLocal bool
	DisableFunc  bool
	DisableReuse bool
	DisableVPred bool
	DisableVProf bool

	// DisableTranslation forces the single-step interpreter instead of
	// the basic-block translation cache (see internal/cpu/translate.go).
	// Execution-shaping only — the two paths produce byte-identical
	// reports (held by the differential harness), so this field is
	// deliberately absent from MeasurementKey. Used by the differential
	// tests and the before/after benchmark comparison.
	DisableTranslation bool

	// Parallel bounds the worker pool repro.RunAll uses to run
	// workloads concurrently (0 = GOMAXPROCS); only multi-workload
	// drivers read it. One core.Run simulates on one goroutine and adds
	// an observer helper goroutine only while a CPU is unclaimed (see
	// ClaimCPU), so runs in parallel keep to one CPU each.
	Parallel int

	// Timeout bounds one workload's wall-clock run time (0 = none).
	// An expired timeout truncates the run: Run returns a partial
	// Report flagged Truncated alongside a *TimeoutError.
	Timeout time.Duration

	// WatchdogInterval arms the deadman watchdog (0 = off): when the
	// run loop makes no retire progress for this long — a wedged step,
	// a runaway observer — the run aborts with a *WatchdogError
	// carrying a PC/phase diagnostic and a truncated partial Report.
	// The run loop publishes progress after every sub-chunk whether or
	// not the watchdog is armed, so arming it costs one goroutine and
	// leaves the run on the translated path.
	WatchdogInterval time.Duration

	// Faults is the deterministic fault-injection plan consulted at
	// each fault point (nil = none); see internal/faultinject. Test
	// and harness use only.
	Faults *faultinject.Plan

	// Checkpoint enables crash-resumable runs (nil = off): snapshots
	// of the complete simulation state — machine, every observer,
	// phase bookkeeping — written at chunk boundaries per the policy
	// and resumed at startup when the policy asks. Deliberately absent
	// from MeasurementKey: a resumed run produces a canonical report
	// byte-identical to an uninterrupted one. See DESIGN.md §16.
	Checkpoint *CheckpointPolicy

	// Span, when set, is the enclosing run span (e.g. opened around
	// compilation by the caller); Run adds its phase children to it,
	// ends it, and snapshots it into the report's RunMetrics. When nil
	// Run opens its own root span.
	Span *obs.Span

	// Health receives the run's resilience accounting — truncations by
	// cause and recovered panics (nil = the process-wide obs.Health).
	// The report server injects its registry's set so daemon instances
	// and tests stay isolated.
	Health *obs.HealthCounters

	// Runs, when set, registers the run for live introspection while it
	// executes: RunRegistry.Snapshot lists in-flight runs with phase,
	// retired count, and retire rate (GET /debug/runs, CLI -progress).
	Runs *RunRegistry

	// Progress, when set, receives periodic updates during the skip
	// and measure phases. It may be called from multiple goroutines
	// when workloads run in parallel, so implementations must be
	// concurrency-safe.
	Progress func(Progress)
}

// The largest reuse buffer a Config may ask for. A buffer stores
// assoc ways for each reachable set and a hash bucket per stored way,
// so a larger associativity would allocate gigabytes before the first
// instruction runs. The sweep's entries and assoc axes share these
// bounds.
const (
	MaxReuseEntries = 1 << 20
	MaxReuseAssoc   = 256
)

// ConfigError reports a Config field that no run can honor. Run
// returns it before it joins a replay group or allocates anything,
// with no report; it is the caller's input at fault, so retrying the
// same Config fails the same way.
type ConfigError struct {
	Field string // the Config field at fault
	Msg   string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: Config.%s %s", e.Field, e.Msg)
}

// Validate checks the measurement fields that size a run's tables or
// select its behavior, returning a *ConfigError for the first one out
// of range. Zero keeps meaning the paper's default everywhere.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
		max  int // 0 = unbounded
	}{
		{"MaxInstances", c.MaxInstances, 0},
		{"ReuseEntries", c.ReuseEntries, MaxReuseEntries},
		{"ReuseAssoc", c.ReuseAssoc, MaxReuseAssoc},
		{"VPredEntries", c.VPredEntries, 0},
		{"InputVariant", c.InputVariant, 0},
	} {
		switch {
		case f.v < 0:
			return &ConfigError{Field: f.name, Msg: fmt.Sprintf("%d is negative (0 selects the default)", f.v)}
		case f.max > 0 && f.v > f.max:
			return &ConfigError{Field: f.name, Msg: fmt.Sprintf("%d is out of range [0, %d] (0 selects the default)", f.v, f.max)}
		}
	}
	if !c.ReusePolicy.Valid() {
		// Reject rather than fall back: a bogus policy would otherwise
		// measure LRU under a key claiming something else.
		return &ConfigError{Field: "ReusePolicy", Msg: fmt.Sprintf("%v is not a replacement policy", c.ReusePolicy)}
	}
	return nil
}

// Progress is one progress-callback update.
type Progress struct {
	Benchmark string
	Phase     string // "skip", "measure", or "replay" (replay.go)
	Done      uint64 // instructions retired in this phase so far
	Total     uint64 // phase budget (0 = run to completion)
	Retired   uint64 // instructions retired since machine start
	Final     bool   // last update for this phase
}

// batchSize is the event-batch length of the observer-major dispatch:
// big enough to amortize per-pass call overhead and keep each
// observer's code and branch-predictor state hot across a whole pass,
// small enough that the buffered events stay cache-resident.
const batchSize = 256

// itemInst/itemCall/itemRet tag the entries of a batch's interleave
// sequence; the order of tags reproduces the exact event order for
// observers that consume call/return events.
const (
	itemInst = iota
	itemCall
	itemRet
)

// batch buffers the event stream between flushes. Instructions,
// calls, and returns live in separate typed slices; kinds records
// their interleaving so a pass that consumes several event types
// replays them in original order.
type batch struct {
	evs   []cpu.Event
	vers  []bool // repetition verdicts, filled by the census pass
	calls []cpu.CallEvent
	rets  []cpu.RetEvent
	kinds []uint8
	// counting is the window state the batch's events retired under,
	// set by flush: the passes read it here, not from the Pipeline.
	counting bool
}

// newBatch allocates an empty batch at full capacity.
func newBatch() *batch {
	return &batch{
		evs:   make([]cpu.Event, 0, batchSize),
		vers:  make([]bool, 0, batchSize),
		calls: make([]cpu.CallEvent, 0, batchSize),
		rets:  make([]cpu.RetEvent, 0, batchSize),
		kinds: make([]uint8, 0, batchSize),
	}
}

// stage is one named observer pass of the batched pipeline; the name
// is used for per-observer cost attribution in RunMetrics. The census
// is stage 0: the passes after it read the verdicts it fills in.
type stage struct {
	name   string
	run    func(b *batch)
	helper bool          // runs on the observer helper when one is armed
	ns     time.Duration // summed time of every pass, timed on every flush
}

// Where each pass runs when core.Run arms an observer helper
// (helper.go). The split follows a CPU profile of `instrep run -bench
// all -parallel 1`: the simulator (about 18% of samples), the census
// (21%), funcanal (8%) and taint (6%) stay on the run goroutine, about
// 53% in all; local (18%), reuse (14%), vprofile (9%) and vpred (4%)
// move to the helper, about 45%.
const (
	onRun    = false
	onHelper = true
)

// Pipeline dispatches simulator events to the enabled analyses in the
// order the measurements require: the census pass (stage 0) fills in
// the repetition verdict for each instruction, which feeds the category
// analyses and the reuse comparison.
//
// Dispatch is batched and observer-major: events buffer into a batch
// (a copy each — the simulator reuses its Event), and a flush runs
// each analysis over the whole batch in one pass. Every observer
// still sees the identical ordered event stream, so no statistic can
// change; what changes is that per-event virtual dispatch is replaced
// by one call per observer per batch and each observer's code stays
// hot for a few hundred events at a time. Flushes happen when the
// batch fills, when the counting window toggles (so every buffered
// event is observed under the window state it retired in), and at
// collection.
//
// A Pipeline runs its passes on the caller's goroutine. Only core.Run
// arms the observer helper (helper.go), which takes some passes to a
// second goroutine; SetCounting, snapshots and Collect then wait until
// it has observed every batch handed to it.
type Pipeline struct {
	Rep   *repetition.Tracker
	Taint *taint.Analysis
	Local *local.Analysis
	Funcs *funcanal.Analysis
	Reuse *reuse.Buffer
	VPred *vpred.Predictor
	VProf *vprofile.Profiler

	counting bool
	b        batch

	// stages are the observer passes in pipeline order, each with its
	// summed pass time.
	stages []stage

	// Observer helper (helper.go): h is set while one is armed.
	// helperNames lists the stages a helper ran; helperWaits and
	// helperWait count the hand-offs that found the ring full and how
	// long they blocked.
	h           *helper
	helperNames []string
	helperWaits uint64
	helperWait  time.Duration
}

// SetCounting opens (or closes) the measurement window. While closed,
// dataflow state (taint tags, local frames, call stacks) still
// propagates so the analyses are correct when the window opens, but no
// statistics accumulate and no instance buffers fill — the paper's
// skip-then-measure methodology. The window state travels on each
// batch (flush stamps it), and the passes hand it to their analyses.
func (p *Pipeline) SetCounting(on bool) {
	p.drain() // buffered events observe under the window they retired in
	p.counting = on
}

// NewPipeline builds the analysis pipeline for an image.
func NewPipeline(im *program.Image, cfg Config) *Pipeline {
	words := im.StaticInstructions()
	p := &Pipeline{Rep: repetition.NewTracker(words)}
	if cfg.MaxInstances > 0 {
		p.Rep.MaxInstances = cfg.MaxInstances
	}
	p.b = *newBatch()
	add := func(name string, helper bool, run func(*batch)) {
		p.stages = append(p.stages, stage{name: name, run: run, helper: helper})
	}
	// Each pass captures its observer in a local and reads the window
	// state from the batch, never a Pipeline field: a helper-side pass
	// loading the Pipeline on every event would share a cache line with
	// the run goroutine's batch writes whenever the allocator placed the
	// Pipeline off a line boundary (DESIGN.md §15).
	rep := p.Rep
	add(rep.Name(), onRun, func(b *batch) {
		if !b.counting {
			return
		}
		for i := range b.evs {
			b.vers[i] = rep.Observe(&b.evs[i])
		}
	})
	// The dataflow analyses run even while the window is closed: their
	// Counting flags, set from the batch, gate the statistics, not the
	// propagation.
	if !cfg.DisableTaint {
		ta := taint.New(im)
		p.Taint = ta
		add(ta.Name(), onRun, func(b *batch) {
			ta.Counting = b.counting
			for i := range b.evs {
				ta.Observe(&b.evs[i], b.vers[i])
			}
		})
	}
	if !cfg.DisableLocal {
		lo := local.New(im)
		p.Local = lo
		add(lo.Name(), onHelper, func(b *batch) {
			lo.Counting = b.counting
			ei, ci, ri := 0, 0, 0
			for _, k := range b.kinds {
				switch k {
				case itemInst:
					lo.Observe(&b.evs[ei], b.vers[ei])
					ei++
				case itemCall:
					lo.OnCall(&b.calls[ci])
					ci++
				default:
					lo.OnReturn(&b.rets[ri])
					ri++
				}
			}
		})
	}
	if !cfg.DisableFunc {
		fa := funcanal.New(im)
		p.Funcs = fa
		add(fa.Name(), onRun, func(b *batch) {
			fa.Counting = b.counting
			ei, ci, ri := 0, 0, 0
			for _, k := range b.kinds {
				switch k {
				case itemInst:
					fa.Observe(&b.evs[ei], b.vers[ei])
					ei++
				case itemCall:
					fa.OnCall(&b.calls[ci])
					ci++
				default:
					fa.OnReturn(&b.rets[ri])
					ri++
				}
			}
		})
	}
	if !cfg.DisableReuse {
		rb := reuse.NewPolicy(cfg.ReuseEntries, cfg.ReuseAssoc, cfg.ReusePolicy, words)
		p.Reuse = rb
		add(rb.Name(), onHelper, func(b *batch) {
			if !b.counting {
				return
			}
			for i := range b.evs {
				rb.Observe(&b.evs[i], b.vers[i])
			}
		})
	}
	if !cfg.DisableVPred {
		vp := vpred.New(cfg.VPredEntries, words)
		p.VPred = vp
		add(vp.Name(), onHelper, func(b *batch) {
			if !b.counting {
				return
			}
			for i := range b.evs {
				vp.Observe(&b.evs[i])
			}
		})
	}
	if !cfg.DisableVProf {
		vf := vprofile.New(words)
		p.VProf = vf
		add(vf.Name(), onHelper, func(b *batch) {
			if !b.counting {
				return
			}
			for i := range b.evs {
				vf.Observe(&b.evs[i])
			}
		})
	}
	return p
}

// NextSlot implements cpu.EventSink: the machine builds the next
// event directly in the batch's tail slot, skipping a build-then-copy
// per instruction. The slot is only committed when OnInst receives
// the same pointer back; an abandoned slot (faulting instruction) is
// reused. The batch is allocated at full capacity and flushed before
// it fills, so the tail slot always exists.
func (p *Pipeline) NextSlot() *cpu.Event {
	return &p.b.evs[:cap(p.b.evs)][len(p.b.evs)]
}

// OnInst implements cpu.Observer: commit the slot the machine built in
// place (when it used NextSlot) or buffer a copy (the simulator reuses
// its own Event otherwise), and flush when the batch fills.
func (p *Pipeline) OnInst(ev *cpu.Event) {
	if n := len(p.b.evs); n < cap(p.b.evs) && ev == &p.b.evs[:n+1][n] {
		p.b.evs = p.b.evs[:n+1]
	} else {
		p.b.evs = append(p.b.evs, *ev)
	}
	p.b.vers = append(p.b.vers, false)
	p.b.kinds = append(p.b.kinds, itemInst)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// flush runs every enabled analysis over the buffered batch, stage by
// stage in the order the per-event dispatch used: the census first
// (producing the verdict for each instruction), then the rest. Every
// pass is timed: one clock stamp per flush, then one monotonic reading
// per pass. With a helper armed it runs the run-goroutine stages and
// hands the batch, verdicts included, to the helper for the rest; it
// first raises a panic the helper recovered. Once more CPUs are claimed
// than GOMAXPROCS it drains the helper, raising a panic from the batches
// still queued, and gives the helper up.
func (p *Pipeline) flush() {
	b := &p.b
	if len(b.kinds) == 0 {
		return
	}
	if h := p.h; h != nil {
		if h.overcommitted() {
			h.drain(b)
			p.disarm()
		} else {
			h.raise(b)
		}
	}
	b.counting = p.counting
	start := time.Now()
	var prev time.Duration
	for i := range p.stages {
		st := &p.stages[i]
		if st.helper && p.h != nil {
			continue
		}
		st.run(b)
		d := time.Since(start)
		st.ns += d - prev
		prev = d
	}
	if p.h != nil {
		p.handoff(b)
		return
	}
	b.reset()
}

// drain observes every buffered event: it flushes the batch and waits
// until an armed helper has observed every batch handed to it.
func (p *Pipeline) drain() {
	p.flush()
	if p.h != nil {
		p.h.drain(&p.b)
	}
}

// reset empties the batch for the next flush.
func (b *batch) reset() {
	b.evs = b.evs[:0]
	b.vers = b.vers[:0]
	b.calls = b.calls[:0]
	b.rets = b.rets[:0]
	b.kinds = b.kinds[:0]
}

// panicAt is the stage core.Run appends last to the pipeline for an
// ObserverPanic fault, on the helper's side so that it is the last
// stage to see each batch on whichever goroutine that is: it panics
// with msg when its pass reaches the event with index at. Every other
// stage has observed the whole batch by then, so the stage empties it
// first and collecting the partial report does not observe the batch
// twice.
func panicAt(at uint64, msg string) func(*batch) {
	return func(b *batch) {
		for i := range b.evs {
			if b.evs[i].Index == at {
				b.reset()
				panic(msg)
			}
		}
	}
}

// ObserverCosts reports each pass's summed time over every flush so
// far (EstimatedNS) and its share of all the passes' time, or nil
// before the first flush. With a helper armed, read it only after a
// drain (SetCounting or Collect): the helper's pass times reach the
// stages there.
func (p *Pipeline) ObserverCosts() []obs.ObserverCost {
	out := make([]obs.ObserverCost, len(p.stages))
	var total int64
	for i, st := range p.stages {
		out[i] = obs.ObserverCost{Name: st.name, EstimatedNS: st.ns.Nanoseconds()}
		total += out[i].EstimatedNS
	}
	if total == 0 {
		return nil
	}
	for i := range out {
		out[i].SharePct = 100 * float64(out[i].EstimatedNS) / float64(total)
	}
	return out
}

// OnCall implements cpu.CallObserver: the call is buffered in event
// order (the CallEvent already carries the argument values read at
// call time, so deferring its observation cannot change them).
func (p *Pipeline) OnCall(ev *cpu.CallEvent) {
	if p.Local == nil && p.Funcs == nil {
		return
	}
	p.b.calls = append(p.b.calls, *ev)
	p.b.kinds = append(p.b.kinds, itemCall)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// OnReturn implements cpu.CallObserver.
func (p *Pipeline) OnReturn(ev *cpu.RetEvent) {
	if p.Local == nil && p.Funcs == nil {
		return
	}
	p.b.rets = append(p.b.rets, *ev)
	p.b.kinds = append(p.b.kinds, itemRet)
	if len(p.b.kinds) >= batchSize {
		p.flush()
	}
}

// CoverageTargets are the repetition-coverage percentages reported for
// the Figure 1 and Figure 4 curves.
var CoverageTargets = []float64{50, 60, 70, 80, 90, 95, 99, 100}

// Report collects every measurement of the paper for one benchmark.
type Report struct {
	Benchmark string

	// Run accounting.
	SkippedInstructions  uint64
	MeasuredInstructions uint64
	ProgramExited        bool
	ExitCode             int32

	// Truncated marks a partial report: the run was cut short
	// mid-window (cancellation, timeout, watchdog, fault, or recovered
	// panic) and every statistic covers only the instructions measured
	// before the cut. TruncatedReason is one of the core.Reason*
	// constants; the error returned alongside the report carries the
	// full diagnostic.
	Truncated       bool   `json:",omitempty"`
	TruncatedReason string `json:",omitempty"`

	// Checkpoint summarizes resumable state on truncated runs: the
	// retire count and age of the newest snapshot a resume would pick
	// up (nil on clean runs and when no checkpoint policy was active).
	Checkpoint *CheckpointStatus `json:",omitempty"`

	// Table 1.
	DynTotal        uint64
	DynRepeatedPct  float64
	StaticTotal     int
	StaticExecuted  int
	StaticExecPct   float64
	StaticRepeatPct float64 // % of executed static insts that repeat

	// Figure 1: % of repeated static instructions covering each of
	// CoverageTargets percent of repetition.
	Fig1Targets []float64
	Fig1        []float64

	// Figure 3 buckets.
	Fig3 [5]float64

	// Table 2.
	UniqueInstances uint64
	AvgRepeats      float64

	// Figure 4.
	Fig4Targets []float64
	Fig4        []float64

	// Table 3 (nil-safe zero value when disabled).
	Table3 taint.Result

	// Table 4.
	Table4 funcanal.Table4

	// Tables 5-7.
	Local local.Result

	// Table 8.
	Table8 funcanal.Table8

	// Figure 5: coverage by top 1..5 argument sets.
	Fig5 []float64

	// Table 9.
	Table9         []local.PERow
	Table9Coverage float64

	// Figure 6: coverage by top 1..5 load values.
	Fig6 []float64

	// Table 10.
	ReusePctAll      float64
	ReusePctRepeated float64

	// Extension: per-instruction-class census (the typed total
	// analysis Section 2 mentions but the paper omits).
	TypeOverallPct    [repetition.NumClasses]float64
	TypePropensityPct [repetition.NumClasses]float64

	// Extension: value-prediction accuracy (Section 7's other
	// exploitation mechanism).
	VPred vpred.Result

	// Extension: per-function profile — self instruction counts with
	// per-function repetition (drill-down behind Tables 4/9).
	Profile []funcanal.FuncRow

	// Extension: Calder-style output-value invariance (the paper's
	// reference [3], contrasted with input+output repetition).
	VProfile vprofile.Result

	// Metrics is the run's observability document: phase wall times,
	// simulator counters, retire rate, and per-observer attributed
	// cost (see internal/obs). Wall-clock values vary run to run.
	Metrics *obs.RunMetrics `json:"RunMetrics,omitempty"`
}

// Collect gathers the report after a run.
func (p *Pipeline) Collect(im *program.Image, name string) *Report {
	p.drain() // observe any tail shorter than a full batch
	r := &Report{
		Benchmark:   name,
		Fig1Targets: CoverageTargets,
		Fig4Targets: CoverageTargets,
	}
	t := p.Rep
	r.DynTotal = t.DynamicInstructions()
	r.DynRepeatedPct = t.RepeatedPercent()
	r.StaticTotal = im.StaticInstructions()
	r.StaticExecuted = t.StaticExecuted()
	if r.StaticTotal > 0 {
		r.StaticExecPct = 100 * float64(r.StaticExecuted) / float64(r.StaticTotal)
	}
	if r.StaticExecuted > 0 {
		r.StaticRepeatPct = 100 * float64(t.StaticRepeated()) / float64(r.StaticExecuted)
	}
	r.Fig1 = t.StaticCoverage(CoverageTargets)
	r.Fig3 = t.InstanceBuckets().Percents()
	r.UniqueInstances, r.AvgRepeats = t.UniqueRepeatableInstances()
	r.Fig4 = t.InstanceCoverage(CoverageTargets)

	if p.Taint != nil {
		r.Table3 = p.Taint.Result()
	}
	if p.Funcs != nil {
		r.Table4 = p.Funcs.Table4()
		r.Table8 = p.Funcs.Table8()
		r.Fig5 = p.Funcs.TopArgSetCoverage(5)
		r.Profile = p.Funcs.PerFunction()
	}
	if p.Local != nil {
		r.Local = p.Local.Result()
		r.Table9, r.Table9Coverage = p.Local.TopPrologueEpilogue(5)
		r.Fig6 = p.Local.TopLoadValueCoverage(5)
	}
	if p.Reuse != nil {
		// Both Table 10 percentages derive from the buffer's own
		// counters, all fed by the single Observe dispatch path.
		r.ReusePctAll = p.Reuse.HitPercent()
		rep := t.RepeatedInstructions()
		if rep > 0 {
			r.ReusePctRepeated = 100 * float64(p.Reuse.HitsRepeated()) / float64(rep)
		}
	}
	r.TypeOverallPct = t.Types.OverallPct()
	r.TypePropensityPct = t.Types.PropensityPct()
	if p.VPred != nil {
		r.VPred = p.VPred.Result(t.DynamicInstructions())
	}
	if p.VProf != nil {
		r.VProfile = p.VProf.Result()
	}
	return r
}

// progressChunk is how many instructions run between run-loop
// checkpoints: cancellation checks, snapshot opportunities, and
// progress callbacks.
const progressChunk = 1 << 18

// subChunk is how many instructions run between progress publications
// inside a chunk: fine enough that the watchdog and /debug/runs see a
// slow chunk advancing, coarse enough that publishing costs nothing
// measurable. Fault stop points split sub-chunks further.
const subChunk = 1 << 14

// runLoop is what the run loop carries across phases: the machine, the
// progress it publishes, the checkpoint state, the fault stop points,
// and the progress callback.
type runLoop struct {
	name  string
	m     *cpu.Machine
	st    *runState
	ck    *ckState
	stops faultinject.Stops
	cb    func(Progress)
}

// runPhase executes up to max instructions (0 = to completion) in
// chunks, checking cancellation, offering ck a snapshot opportunity at
// every chunk boundary but the one that completes the measure window,
// and reporting through cb when non-nil. On cancellation it returns the
// context's cause (the watchdog, timeout, or caller-supplied
// cancellation error).
func (l *runLoop) runPhase(ctx context.Context, max uint64, phase string) (uint64, error) {
	m := l.m
	l.st.setPhase(phase)
	var done uint64
	var err error
	for !m.Halted && err == nil && (max == 0 || done < max) {
		if ctx.Err() != nil {
			err = cause(ctx)
			break
		}
		chunk := uint64(progressChunk)
		if max > 0 && max-done < chunk {
			chunk = max - done
		}
		var n uint64
		n, err = l.runChunk(ctx, chunk)
		done += n
		// Snapshot only consistent, continuable state: never after a
		// fault (which may have cut an instruction short), never once
		// the program completed, and never at the end of the measure
		// window — the run collects and removes its snapshot right
		// after, so nothing could resume from it.
		if err == nil && !m.Halted && !(phase == "measure" && done == max) {
			l.ck.atBoundary(phase, m.Count, done)
		}
		if l.cb != nil {
			l.cb(Progress{Benchmark: l.name, Phase: phase, Done: done, Total: max, Retired: m.Count})
		}
	}
	if l.cb != nil {
		l.cb(Progress{Benchmark: l.name, Phase: phase, Done: done, Total: max, Retired: m.Count, Final: true})
	}
	return done, err
}

// runChunk executes up to n instructions in sub-chunks, publishing the
// retire count and PC after each. A fault stop point ends a sub-chunk
// exactly at its retire count, where the fault applies before the
// machine moves on: a SimFault ends the chunk with its error, and a
// SlowStep stalls before each single step from there on.
func (l *runLoop) runChunk(ctx context.Context, n uint64) (uint64, error) {
	m := l.m
	var done uint64
	for done < n && !m.Halted {
		k := n - done
		if k > subChunk {
			k = subChunk
		}
		if at, ok := l.stops.Next(m.Count); ok {
			if at == m.Count {
				if err := l.stops.Apply(ctx, m.Count, m.PC); err != nil {
					return done, err
				}
				k = 1
			} else if at-m.Count < k {
				k = at - m.Count
			}
		}
		r, err := m.Run(k)
		done += r
		l.st.publish(m.Count, m.PC)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// window observes a run's measure window: the full pipeline, or a
// replay's lone reuse buffer (replay.go).
type window interface {
	// open starts the window: the next instruction is its first.
	open()
	// drain observes every buffered event.
	drain()
	// Collect gathers the window's statistics into a report.
	Collect(im *program.Image, name string) *Report
	// describe fills the window's part of the run metrics.
	describe(rm *obs.RunMetrics)
}

func (p *Pipeline) open() { p.SetCounting(true) }

func (p *Pipeline) describe(rm *obs.RunMetrics) {
	rm.Observers = p.ObserverCosts()
	rm.ObserverHelper = p.helperNames
	rm.HelperWaits = p.helperWaits
	rm.HelperWaitNS = p.helperWait.Nanoseconds()
}

// Run executes a full experiment: fast-forward, attach the pipeline,
// measure, and collect the report with its run metrics. If cfg.Span
// is set Run treats it as the enclosing run span (adding phase
// children and ending it); otherwise it opens its own.
//
// Run degrades instead of discarding: when the run is cut short —
// ctx canceled, cfg.Timeout expired, the watchdog fired, the
// simulator faulted, or a panic was recovered — it returns a partial
// Report flagged Truncated (statistics cover the instructions
// measured so far, metrics included) alongside the error describing
// the cut. Only a nil ctx is replaced with context.Background(). A
// Config that fails Validate returns its *ConfigError and no report.
//
// Under a context carrying ReplayGroups, an eligible run joins its
// group first (replay.go): the group's first run leads and records its
// census verdicts, and a later run waits for the leader and, when the
// leader published, replays those verdicts through its own reuse
// buffer in a "replay" phase instead of a "measure" phase. A leader
// that resumed from a snapshot lacks the verdicts from before it and
// publishes none. A replay never loads or writes a snapshot; when it
// completes it removes any snapshot under its policy's key. A replay
// whose measured count differs from the verdicts it was given returns
// an error and no report.
func Run(ctx context.Context, im *program.Image, input []byte, name string, cfg Config) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The wait for a group's leader comes before the CPU claim, so a
	// waiting run holds none; the leader's group is released last, after
	// its CPU. rec holds the verdicts a replay is fed, or those a leader
	// records.
	lead, rec := joinGroup(ctx, im, input, name, cfg)
	replaying := rec != nil
	if lead != nil {
		defer lead.settle()
	}
	defer ClaimCPU()()
	root := cfg.Span
	if root == nil {
		root = obs.StartSpan("run")
	}
	health := cfg.Health
	if health == nil {
		health = obs.Health
	}

	// Per-run cancel-cause plumbing: the watchdog and timeout record
	// the precise abort reason, which runPhase surfaces via
	// context.Cause.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if cfg.Timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, cfg.Timeout,
			&TimeoutError{Benchmark: name, Limit: cfg.Timeout})
		defer cancelTimeout()
	}

	load := root.StartChild("load")
	var (
		m      *cpu.Machine
		p      *Pipeline
		w      window
		ck     *ckState
		resume *resumeState
		// phase names the measure window's run phase and span.
		phase = "measure"
	)
	if replaying {
		m = cpu.New(im, input)
		m.NoTranslate = cfg.DisableTranslation
		w, phase = newReplay(m, cfg, rec), "replay"
	} else {
		m, p, ck, resume = startPipeline(im, input, name, cfg, root)
		if lead != nil && resume == nil {
			rec = &verdicts{}
			p.stages = append(p.stages, stage{name: "verdicts", run: rec.record, helper: onRun})
		}
		// Arm the helper only now: a failed restore rebuilds the
		// pipeline, and the helper keeps pointers into p.stages.
		p.armHelper()
		defer p.disarm()
		w = p
	}
	st := newRunState(name)
	if resume != nil {
		st.publish(m.Count, m.PC)
	}
	st.traceID = obs.TraceIDFrom(ctx)
	if cfg.WatchdogInterval > 0 {
		defer watch(ctx, cancel, st, cfg.WatchdogInterval)()
	}
	if cfg.Runs != nil {
		defer cfg.Runs.remove(cfg.Runs.add(st))
	}
	if ck != nil {
		ck.st = st
	}
	loop := &runLoop{name: name, m: m, st: st, ck: ck, stops: cfg.Faults.Stops(name), cb: cfg.Progress}
	load.End()

	var skipped, measured uint64
	if resume != nil {
		skipped, measured = resume.skipped, resume.measured
	}
	var measure *obs.Span

	// finish assembles the final — possibly partial — report: on a
	// truncated run the collected statistics cover the instructions
	// measured so far and the report travels alongside the error.
	finish := func(runErr error) *Report {
		// The window's last events are observed inside the span that
		// times the window, and a panic the helper recovered is raised
		// before the collect span starts.
		w.drain()
		if measure != nil {
			measure.End()
		}
		collect := root.StartChild("collect")
		r := w.Collect(im, name)
		r.SkippedInstructions = skipped
		r.MeasuredInstructions = measured
		r.ProgramExited = m.Halted
		r.ExitCode = m.ExitCode
		collect.End()
		root.End()
		var measureWall time.Duration
		if measure != nil {
			measureWall = measure.Duration()
		}
		r.Metrics = runMetrics(root, m, w, name, measured, measureWall)
		r.Metrics.TraceID = st.traceID
		if runErr != nil {
			r.Truncated = true
			r.TruncatedReason = TruncationReason(runErr)
			recordTruncation(health, r.TruncatedReason)
			r.Checkpoint = ck.status()
		}
		return r
	}

	// Panic isolation: a panic in the simulator, an observer, or
	// collection becomes a *PanicError with the partial report still
	// assembled when the pipeline state allows it. The deferred recover
	// only captures the panic (its stack must cover the panic site) and
	// the report is assembled after the panic has unwound: collection
	// allocates heavily, and running it inside the deferred call, with
	// the panicking frames still on the stack, corrupts the heap under
	// frequent GC (TestPanicRecoveryUnderGCPressure).
	var perr *PanicError
	rep, err = func() (*Report, error) {
		defer func() {
			if pv := recover(); pv != nil {
				perr = NewPanicError(name, pv)
			}
		}()

		if remaining := cfg.SkipInstructions - skipped; cfg.SkipInstructions > 0 &&
			(resume == nil || resume.phase == "skip") && remaining > 0 {
			// Warmup: the pipeline propagates dataflow state (so tags
			// from initialization-time input reads survive) but counts
			// nothing. A resumed run finishes the remaining budget only —
			// max=0 would mean run-to-completion, hence the guard.
			skip := root.StartChild("skip")
			done, serr := loop.runPhase(ctx, remaining, "skip")
			skipped += done
			skip.End()
			if serr != nil {
				return finish(serr), fmt.Errorf("core: warmup: %w", serr)
			}
		}
		if ck != nil {
			ck.baseSkipped = skipped
		}

		w.open()
		measure = root.StartChild(phase)
		measureMax := cfg.MeasureInstructions
		if cfg.MeasureInstructions > 0 {
			measureMax = cfg.MeasureInstructions - measured
		}
		if measureMax > 0 || cfg.MeasureInstructions == 0 {
			done, merr := loop.runPhase(ctx, measureMax, phase)
			measured += done
			if merr != nil {
				return finish(merr), fmt.Errorf("core: %s: %w", phase, merr)
			}
		}
		if cp := cfg.Checkpoint; cp.enabled() {
			// A completed run can't be "resumed": drop its snapshot, or
			// the one an earlier full attempt left under a replay's key.
			cp.Store.Remove(cp.Key)
		}
		if replaying && measured != rec.n {
			measure.End()
			root.End()
			return nil, fmt.Errorf("core: replay: measured %d instructions, but the census verdicts cover %d", measured, rec.n)
		}
		return finish(nil), nil
	}()
	if perr != nil {
		health.PanicsRecovered.Inc()
		return safeFinish(finish, perr), perr
	}
	if lead != nil && rec != nil && err == nil {
		lead.publish(rec, rep, p.Rep.RepeatedInstructions())
	}
	return rep, err
}

// startPipeline builds a full run's machine and pipeline, and, under a
// checkpoint policy that asks for it, restores both from the newest
// snapshot under the policy's key before any instruction runs. A
// snapshot that fails restore-time validation is counted, deleted, and
// ignored — the freshly built state is discarded (restore may have
// partially mutated it) and the run starts over.
func startPipeline(im *program.Image, input []byte, name string, cfg Config, root *obs.Span) (*cpu.Machine, *Pipeline, *ckState, *resumeState) {
	build := func() (*cpu.Machine, *Pipeline) {
		m := cpu.New(im, input)
		m.NoTranslate = cfg.DisableTranslation
		p := NewPipeline(im, cfg)
		if at, msg, ok := cfg.Faults.ObserverPanic(name); ok {
			p.stages = append(p.stages, stage{name: "faultinject", run: panicAt(at, msg), helper: onHelper})
		}
		m.Attach(p)
		return m, p
	}
	m, p := build()
	cp := cfg.Checkpoint
	if !cp.enabled() {
		return m, p, nil, nil
	}
	ck := &ckState{policy: cp, name: name, span: root, m: m, p: p, lastAt: time.Now()}
	if !cp.Resume {
		return m, p, ck, nil
	}
	body, ok := cp.Store.Load(cp.Key)
	if !ok {
		return m, p, ck, nil
	}
	sp := root.StartChild("checkpoint.restore")
	defer sp.End()
	rs, rerr := restoreBody(body, ck)
	if rerr == nil && !resumableInto(rs, cfg) {
		rerr = checkpoint.ErrMalformed
	}
	if rerr != nil {
		sp.SetAttr("error", rerr.Error())
		cp.Store.RejectResume(cp.Key)
		m, p = build()
		ck.m, ck.p = m, p
		return m, p, ck, nil
	}
	sp.SetAttr("retired", rs.retired)
	sp.SetAttr("phase", rs.phase)
	ck.baseSkipped, ck.baseMeasured = rs.skipped, rs.measured
	ck.lastRetired = rs.retired
	cp.Store.Stats.Resumes.Inc()
	if cp.Notify != nil {
		cp.Notify(CheckpointEvent{
			Benchmark: name, Resumed: true,
			Retired: rs.retired, Phase: rs.phase,
		})
	}
	return m, p, ck, &rs
}

// resumableInto checks a restored snapshot's phase bookkeeping against
// the config it is resuming under: the checkpoint key already pins the
// measurement config, so a mismatch here means a forged or misfiled
// snapshot and rejects the resume.
func resumableInto(rs resumeState, cfg Config) bool {
	if rs.phase == "skip" {
		return cfg.SkipInstructions > 0 && rs.skipped <= cfg.SkipInstructions && rs.measured == 0
	}
	if rs.skipped != cfg.SkipInstructions {
		// Measure-phase snapshots only exist after the whole skip
		// budget ran.
		return false
	}
	return cfg.MeasureInstructions == 0 || rs.measured <= cfg.MeasureInstructions
}

// safeFinish runs finish under its own recover: after a mid-update
// panic the pipeline state may be inconsistent enough that collection
// panics too, in which case the partial report is dropped and only
// the error survives.
func safeFinish(finish func(error) *Report, perr error) (rep *Report) {
	defer func() {
		if recover() != nil {
			rep = nil
		}
	}()
	return finish(perr)
}

// runMetrics assembles the observability document for one run.
func runMetrics(root *obs.Span, m *cpu.Machine, w window, name string, measured uint64, measureWall time.Duration) *obs.RunMetrics {
	rm := &obs.RunMetrics{
		Benchmark:        name,
		Phases:           root.Tree(),
		ExecPath:         obs.ExecTranslated,
		BlocksTranslated: m.Trans.Blocks,
		FallbackSteps:    m.Trans.FallbackSteps,
		Sim: obs.SimCounters{
			Retired:       m.Count,
			Loads:         m.Stats.Loads,
			Stores:        m.Stats.Stores,
			Branches:      m.Stats.Branches,
			BranchesTaken: m.Stats.BranchesTaken,
			Syscalls:      m.Stats.Syscalls,
		},
	}
	if m.NoTranslate {
		rm.ExecPath = obs.ExecInterpreted
	}
	w.describe(rm)
	for k, n := range m.Stats.Kinds {
		if n > 0 {
			rm.Sim.ClassMix = append(rm.Sim.ClassMix, obs.ClassCount{
				Class: isa.Kind(k).String(), Count: n,
			})
		}
	}
	if secs := measureWall.Seconds(); secs > 0 {
		rm.RetireRateMIPS = float64(measured) / secs / 1e6
	}
	return rm
}
