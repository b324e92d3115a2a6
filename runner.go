package repro

// Runner threads the content-addressed result cache through the same
// run path the package-level functions use, so the CLI batch path
// (`instrep run -cache-dir`) and the report server share one code
// path. See internal/resultcache and DESIGN.md §12.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/resultcache"
	"repro/internal/workloads"
)

// CanonicalReportJSON renders the deterministic content of a report —
// everything except the wall-clock RunMetrics document — as indented
// JSON. It is the byte-exact form stored by the result cache, served
// by `instrep serve`, and pinned by the golden corpus under
// testdata/golden.
func CanonicalReportJSON(r *Report) ([]byte, error) {
	return core.CanonicalJSON(r)
}

// Runner runs workloads through an optional content-addressed result
// cache. The zero value (and a nil *Runner) behaves exactly like the
// package-level RunWorkload/RunAll: every call simulates.
//
// With Cache set, complete reports are stored under a fingerprint of
// (workload source, measurement Config, simulator version) and later
// calls with an equal fingerprint are served from the cache without
// simulating; concurrent calls for the same cold key trigger exactly
// one simulation. Cached reports are canonical — they carry no
// RunMetrics (those are per-execution wall-clock data) and must be
// treated as read-only, since concurrent callers may share them.
// Runs with fault injection configured bypass the cache entirely, and
// truncated partial reports are returned but never stored.
type Runner struct {
	// Cache is the result cache (nil = always simulate).
	Cache *resultcache.Cache

	// Gate is the admission-control semaphore bounding concurrent
	// simulations (nil = unbounded). It only guards actual
	// computations: cache hits and singleflight followers never take a
	// slot. When both the semaphore and its wait queue are full the
	// run fails fast with an *overload.ShedError.
	Gate *overload.Gate

	// Breakers is the per-workload circuit breaker set (nil = none).
	// After its threshold of consecutive simulation failures —
	// panics, faults, timeouts, watchdog aborts — a workload's runs
	// fail fast with an *overload.BreakerOpenError, without taking a
	// Gate slot, until a cooldown elapses and a half-open probe
	// succeeds. Cached results are still served while a breaker is
	// open.
	Breakers *overload.BreakerSet

	// Checkpoint, when set (with a Store), threads crash-resumable
	// checkpointing through every eligible run: the policy is copied
	// per workload with Key set to the run's result-cache fingerprint,
	// so a snapshot can only resume a byte-identical (workload,
	// config, version) run. Runs with fault injection configured are
	// never checkpointed (same eligibility rule as the cache), and a
	// Config that already carries its own policy wins.
	Checkpoint *core.CheckpointPolicy

	// Run computes one workload on a cache miss (nil = RunWorkload).
	// Injectable for tests that need to count or fake simulations.
	Run func(ctx context.Context, name string, cfg Config) (*Report, error)
}

// CheckpointEvent is one resume or snapshot-write notification (see
// core.CheckpointPolicy.Notify).
type CheckpointEvent = core.CheckpointEvent

// CheckpointPolicy configures crash-resumable runs (Config.Checkpoint
// or Runner.Checkpoint); see the field documentation in internal/core.
type CheckpointPolicy = core.CheckpointPolicy

// runOne resolves the compute function.
func (rn *Runner) runOne() func(context.Context, string, Config) (*Report, error) {
	if rn != nil && rn.Run != nil {
		return rn.Run
	}
	return RunWorkload
}

// admitted wraps a compute function with the breaker check, the
// admission gate, and the trace spans that make both visible: a
// "queue" span covering the Gate wait (attrs wait_ns and outcome) and
// a "sim" span covering the simulation itself. Ordering matters: the
// breaker rejects before a semaphore slot is taken, so an open breaker
// costs nothing, and a shed probe is reverted (not counted as a
// failure) by Record's ShedError handling.
func (rn *Runner) admitted(run func(context.Context, string, Config) (*Report, error)) func(context.Context, string, Config) (*Report, error) {
	return func(ctx context.Context, name string, cfg Config) (*Report, error) {
		req := obs.SpanFrom(ctx) // the request/run root, if the edge installed one
		if rn != nil && rn.Breakers != nil {
			if err := rn.Breakers.Allow(name); err != nil {
				req.SetAttr("breaker", "open")
				return nil, err
			}
		}
		if rn != nil && rn.Gate != nil {
			queue, _ := obs.StartSpanCtx(ctx, "queue")
			err := rn.Gate.Acquire(ctx)
			wait := queue.End()
			queue.SetAttr("wait_ns", wait.Nanoseconds())
			req.SetAttr("queue_wait_ns", wait.Nanoseconds())
			if err != nil {
				queue.SetAttr("outcome", "shed")
				if rn.Breakers != nil {
					rn.Breakers.Record(name, err) // reverts a shed half-open probe
				}
				return nil, err
			}
			queue.SetAttr("outcome", "admitted")
			defer rn.Gate.Release()
		}
		sim, ctx := obs.StartSpanCtx(ctx, "sim")
		sim.SetAttr("workload", name)
		rep, err := run(ctx, name, cfg)
		sim.End()
		if rep != nil && rep.Metrics != nil {
			m := rep.Metrics
			sim.SetAttr("retired", m.Sim.Retired)
			sim.SetAttr("exec_path", m.ExecPath)
			sim.SetAttr("blocks_translated", m.BlocksTranslated)
			sim.SetAttr("fallback_steps", m.FallbackSteps)
			sim.SetAttr("observer_helper", strings.Join(m.ObserverHelper, ","))
		}
		if rn != nil && rn.Breakers != nil {
			rn.Breakers.Record(name, err)
		}
		return rep, err
	}
}

// RunWorkload is RunWorkload through the cache: a fingerprint hit
// skips the simulation and returns the stored canonical report.
// Admission control and the circuit breaker (when configured) apply
// only to the computation itself — cached reports are always served.
func (rn *Runner) RunWorkload(ctx context.Context, name string, cfg Config) (*Report, error) {
	run := rn.admitted(rn.runOne())
	checkpointing := rn != nil && rn.Checkpoint != nil && rn.Checkpoint.Store != nil && cfg.Checkpoint == nil
	if rn == nil || (rn.Cache == nil && !checkpointing) || !resultcache.Cacheable(cfg) {
		return run(ctx, name, cfg)
	}
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown workload %q (have %v)", name, workloads.Names())
	}
	key := resultcache.Fingerprint(name, w.Source, cfg)
	if checkpointing {
		policy := *rn.Checkpoint
		policy.Key = key
		cfg.Checkpoint = &policy
	}
	if rn.Cache == nil {
		return run(ctx, name, cfg)
	}
	return rn.Cache.GetOrCompute(ctx, key, func(ctx context.Context) (*Report, error) {
		return run(ctx, name, cfg)
	})
}

// RunAll is RunAll through the cache: the same bounded worker pool and
// fail-soft aggregation, with each workload resolved via the cache.
func (rn *Runner) RunAll(ctx context.Context, cfg Config) ([]*Report, error) {
	return runAll(ctx, workloads.Names(), cfg, rn.RunWorkload)
}
