// Package jobs is the crash-durable async job tier: a journaled job
// manager over the cache/checkpoint-aware run path, so expensive
// (workload, config) measurements that don't fit a request timeout can
// be submitted, survive a server crash, and finish anyway.
//
// Durability comes from two layers. The journal (an append-only file
// of versioned, checksummed records — see journal.go) makes the job
// *ledger* survive a SIGKILL: on restart the manager replays it and
// re-enqueues every job that was queued, running, or interrupted. The
// checkpoint store (internal/checkpoint, threaded through per job by
// the result-cache fingerprint key) makes the job's *work* survive:
// a re-enqueued job resumes from its last ICKP snapshot rather than
// from zero, and — because runs are deterministic — its final report
// is byte-identical to an uninterrupted run. See DESIGN.md §18.
package jobs

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/reuse"
	"repro/internal/workloads"
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | canceled | interrupted
//	running → queued              (transient failure, retry with backoff)
//	interrupted → queued          (journal replay at the next startup)
//	failed/canceled → queued      (explicit resubmit)
//
// done, failed, and canceled are terminal until a resubmit;
// interrupted is a durable promise that the next process will finish
// the work.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state ends the job's lifecycle (absent
// a resubmit). Interrupted is deliberately non-terminal: it means
// "finish me after the restart".
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is the measurement a job computes: a workload plus the
// measurement-affecting Config fields (the exact set covered by
// core.Config.MeasurementKey). Execution-shaping fields — timeout,
// watchdog, dispatch path — are deliberately absent: they belong to
// the serving process, not the job identity, and must not change the
// fingerprint.
type Spec struct {
	Workload     string `json:"workload"`
	Skip         uint64 `json:"skip"`
	Measure      uint64 `json:"measure"`
	MaxInstances int    `json:"instances,omitempty"`
	ReuseEntries int    `json:"reuse_entries,omitempty"`
	ReuseAssoc   int    `json:"reuse_assoc,omitempty"`
	ReusePolicy  string `json:"reuse_policy,omitempty"`
	VPredEntries int    `json:"vpred_entries,omitempty"`
	InputVariant int    `json:"input_variant,omitempty"`
	DisableTaint bool   `json:"disable_taint,omitempty"`
	DisableLocal bool   `json:"disable_local,omitempty"`
	DisableFunc  bool   `json:"disable_func,omitempty"`
	DisableReuse bool   `json:"disable_reuse,omitempty"`
	DisableVPred bool   `json:"disable_vpred,omitempty"`
	DisableVProf bool   `json:"disable_vprof,omitempty"`
}

// SpecFromConfig builds a Spec from a run Config's measurement fields
// (the server uses it to default submit requests to its own RunConfig).
func SpecFromConfig(workload string, cfg core.Config) Spec {
	policy := ""
	if cfg.ReusePolicy != 0 {
		policy = cfg.ReusePolicy.String()
	}
	return Spec{
		Workload:     workload,
		Skip:         cfg.SkipInstructions,
		Measure:      cfg.MeasureInstructions,
		MaxInstances: cfg.MaxInstances,
		ReuseEntries: cfg.ReuseEntries,
		ReuseAssoc:   cfg.ReuseAssoc,
		ReusePolicy:  policy,
		VPredEntries: cfg.VPredEntries,
		InputVariant: cfg.InputVariant,
		DisableTaint: cfg.DisableTaint,
		DisableLocal: cfg.DisableLocal,
		DisableFunc:  cfg.DisableFunc,
		DisableReuse: cfg.DisableReuse,
		DisableVPred: cfg.DisableVPred,
		DisableVProf: cfg.DisableVProf,
	}
}

// Config returns base with every measurement field replaced by the
// spec's: a job runs under the serving process's execution shaping
// (timeout, watchdog, dispatch path, health and run registry) and
// measures exactly what the spec names. It fails on an unknown
// replacement policy; workload existence is checked by Validate.
func (s Spec) Config(base core.Config) (core.Config, error) {
	cfg := base
	cfg.SkipInstructions = s.Skip
	cfg.MeasureInstructions = s.Measure
	cfg.MaxInstances = s.MaxInstances
	cfg.ReuseEntries = s.ReuseEntries
	cfg.ReuseAssoc = s.ReuseAssoc
	cfg.ReusePolicy = reuse.LRU
	cfg.VPredEntries = s.VPredEntries
	cfg.InputVariant = s.InputVariant
	cfg.DisableTaint = s.DisableTaint
	cfg.DisableLocal = s.DisableLocal
	cfg.DisableFunc = s.DisableFunc
	cfg.DisableReuse = s.DisableReuse
	cfg.DisableVPred = s.DisableVPred
	cfg.DisableVProf = s.DisableVProf
	if s.ReusePolicy != "" {
		p, err := reuse.ParsePolicy(s.ReusePolicy)
		if err != nil {
			return cfg, err
		}
		cfg.ReusePolicy = p
	}
	return cfg, nil
}

// Validate checks the spec and returns its job ID — the result-cache
// fingerprint of (workload source, measurement config, simulator
// version). Identical measurements share an ID by construction, which
// is what makes submission idempotent.
func (s Spec) Validate() (id string, err error) {
	w, ok := workloads.ByName(s.Workload)
	if !ok {
		return "", fmt.Errorf("jobs: unknown workload %q (have %v)", s.Workload, workloads.Names())
	}
	cfg, err := s.Config(core.Config{})
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	return resultcache.Fingerprint(s.Workload, w.Source, cfg), nil
}

// Record is one journaled job snapshot: the whole job state at a
// transition. The journal holds a history of these; the last record
// per ID wins on replay.
type Record struct {
	ID          string `json:"id"`
	Seq         uint64 `json:"seq"` // submit order, for FIFO dispatch
	Spec        Spec   `json:"spec"`
	State       State  `json:"state"`
	Retries     int    `json:"retries"`
	Resumes     int    `json:"resumes"`
	Error       string `json:"error,omitempty"`
	SubmittedMS int64  `json:"submitted_ms"`
	UpdatedMS   int64  `json:"updated_ms"`
}

// CheckpointInfo summarizes a job's newest simulation snapshot: what a
// crash right now would cost.
type CheckpointInfo struct {
	Retired uint64 `json:"retired"`
	AgeMS   int64  `json:"age_ms"`
}

// Doc is the job's API view (GET /v1/jobs/{id}).
type Doc struct {
	ID          string          `json:"id"`
	Spec        Spec            `json:"spec"`
	State       State           `json:"state"`
	Retries     int             `json:"retries"`
	Resumes     int             `json:"resumes"`
	Error       string          `json:"error,omitempty"`
	SubmittedMS int64           `json:"submitted_ms"`
	UpdatedMS   int64           `json:"updated_ms"`
	NextRetryMS int64           `json:"next_retry_ms,omitempty"` // backoff deadline, unix ms
	Checkpoint  *CheckpointInfo `json:"checkpoint,omitempty"`
}

// RetryAfter suggests a client poll interval for the doc's state: the
// remaining backoff for a queued retry, else fallback for any live
// state, else zero (terminal; stop polling).
func (d Doc) RetryAfter(now time.Time, fallback time.Duration) time.Duration {
	if d.State.Terminal() {
		return 0
	}
	if d.NextRetryMS > 0 {
		if wait := time.UnixMilli(d.NextRetryMS).Sub(now); wait > fallback {
			return wait
		}
	}
	return fallback
}
