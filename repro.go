// Package repro reproduces "An Empirical Analysis of Instruction
// Repetition" (Sodani & Sohi, ASPLOS 1998): a characterization of how
// often dynamic instructions consume the same inputs and produce the
// same outputs as earlier instances, and where that repetition comes
// from.
//
// The package is the public face of the reproduction. It compiles the
// eight SPEC '95 integer workload analogs (written in MiniC, compiled
// by the bundled compiler to a MIPS-I-like ISA), simulates them on the
// bundled functional simulator, and runs the paper's analyses:
//
//   - the repetition census (Tables 1-2, Figures 1, 3, 4)
//   - the global dataflow-source analysis (Table 3)
//   - the function-level argument analysis (Tables 4, 8, Figure 5)
//   - the local within-function analysis (Tables 5-7, 9, Figure 6)
//   - the reuse-buffer capture measurement (Table 10)
//
// Quick start:
//
//	reports, err := repro.RunAll(context.Background(), repro.DefaultConfig())
//	fmt.Print(repro.FormatTable1(reports))
//
// Custom programs can be analyzed with RunSource, which accepts MiniC
// source text.
//
// Runs are deterministic, so reports are pure functions of their
// inputs: Runner wraps RunWorkload/RunAll with a content-addressed
// result cache (internal/resultcache), and the instrep serve daemon
// (internal/reportserver) serves cached canonical reports over HTTP.
// CanonicalReportJSON is the byte-exact form shared by the cache, the
// server, and the golden test corpus.
package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/workloads"
)

// Config controls an experiment run; see the field documentation in
// internal/core. The zero value measures a whole program with the
// paper's buffer sizes.
type Config = core.Config

// Report holds every measurement of the paper for one benchmark run.
type Report = core.Report

// Progress is one progress-callback update (see Config.Progress).
type Progress = core.Progress

// RunMetrics is the per-run observability document (phase wall times,
// simulator counters, retire rate, per-observer attributed cost)
// attached to every Report.
type RunMetrics = obs.RunMetrics

// RunRegistry tracks in-flight simulations for live introspection
// (Config.Runs): the report server's GET /debug/runs and the CLI's
// -progress read its snapshots.
type RunRegistry = core.RunRegistry

// RunInfo is one in-flight run in a RunRegistry snapshot.
type RunInfo = core.RunInfo

// NewRunRegistry builds an empty run registry for Config.Runs.
func NewRunRegistry() *RunRegistry { return core.NewRunRegistry() }

// DefaultConfig returns the standard experiment window: skip 1M
// instructions of initialization, measure the next 5M with the paper's
// 2000-instance buffers and 8K/4-way reuse buffer. (The paper skipped
// 500M and measured 1B on hardware of its day; the window scales, the
// shapes do not — see EXPERIMENTS.md.)
func DefaultConfig() Config {
	return Config{
		SkipInstructions:    1_000_000,
		MeasureInstructions: 5_000_000,
	}
}

// QuickConfig returns a reduced window for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		SkipInstructions:    100_000,
		MeasureInstructions: 500_000,
	}
}

// Workloads lists the benchmark analog names in report order.
func Workloads() []string { return workloads.Names() }

// WorkloadInfo describes one workload.
type WorkloadInfo struct {
	Name        string
	Analog      string // the SPEC '95 benchmark it stands in for
	Description string
}

// WorkloadInfos returns metadata for every workload.
func WorkloadInfos() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{Name: w.Name, Analog: w.Analog, Description: w.Description})
	}
	return out
}

// RunWorkload runs the full analysis pipeline on one named workload.
// A canceled ctx, an expired cfg.Timeout, or a watchdog abort cuts the
// run short; the partial report (flagged Truncated) is returned
// alongside the error. Panics in the run path are recovered into the
// error instead of crashing the caller. A nil ctx is treated as
// context.Background().
func RunWorkload(ctx context.Context, name string, cfg Config) (rep *Report, err error) {
	defer recoverToError(healthOf(cfg), name, &rep, &err)
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown workload %q (have %v)", name, workloads.Names())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Mint a per-run trace when the caller did not install one (the CLI
	// path; the report server mints per request at the HTTP edge), so
	// every report's RunMetrics carries a trace ID.
	if obs.TraceFrom(ctx) == nil {
		t := obs.NewTrace("run:" + name)
		ctx = obs.WithTrace(ctx, t)
		defer t.End()
	}
	// Open the run span here so compilation is visible as a phase
	// alongside core.Run's load/skip/measure/collect children. The span
	// parents under the context's current span (the server's "sim"
	// span, or the trace root just minted).
	root, ctx := obs.StartSpanCtx(ctx, "run")
	compile := root.StartChild("compile")
	var im *program.Image
	cerr := cfg.Faults.CompileError(w.Name)
	if cerr == nil {
		im, cerr = w.Image()
	}
	compile.End()
	if cerr != nil {
		return nil, cerr
	}
	variant := cfg.InputVariant
	if variant <= 0 {
		variant = 1
	}
	cfg.Span = root
	return core.Run(ctx, im, w.Input(variant), w.Name, cfg)
}

// healthOf resolves a run's resilience counter set: the injected one
// (Config.Health, e.g. a server registry's) or the process-wide
// default.
func healthOf(cfg Config) *obs.HealthCounters {
	if cfg.Health != nil {
		return cfg.Health
	}
	return obs.Health
}

// recoverToError converts a panic that escaped the run path into a
// per-workload *core.PanicError, so no input reachable through the
// public Run functions can crash the process.
func recoverToError(h *obs.HealthCounters, name string, rep **Report, err *error) {
	if pv := recover(); pv != nil {
		h.PanicsRecovered.Inc()
		*rep, *err = nil, core.NewPanicError(name, pv)
	}
}

// FormatMetrics renders each report's run metrics as text (the
// `instrep run -metrics text` output).
func FormatMetrics(rs []*Report) string {
	var b strings.Builder
	for _, r := range rs {
		if r.Metrics == nil {
			continue
		}
		b.WriteString(r.Metrics.FormatText())
		b.WriteByte('\n')
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// RunAll runs every workload — concurrently, since each simulation is
// independent and deterministic — and returns the reports in report
// order. Concurrency is bounded by cfg.Parallel workers (0 =
// GOMAXPROCS), so an eight-workload run on a small machine no longer
// time-slices eight simulators against each other.
//
// RunAll is fail-soft: when some workloads fail, the reports of the
// ones that succeeded — plus any partial (Truncated) reports from
// runs cut short mid-window — are still returned, in report order,
// alongside an errors.Join-aggregated error naming every failure. A
// panicking workload fails alone: its goroutine recovers the panic
// into its error slot and the other workloads run to completion.
// Callers that only care about total success can keep treating a
// non-nil error as fatal.
func RunAll(ctx context.Context, cfg Config) ([]*Report, error) {
	return runAll(ctx, workloads.Names(), cfg, RunWorkload)
}

// runAll is RunAll with the workload set and runner injected (tested
// with deliberately failing runners).
func runAll(ctx context.Context, names []string, cfg Config, runOne func(context.Context, string, Config) (*Report, error)) ([]*Report, error) {
	byIndex := make([]*Report, len(names))
	errs := make([]error, len(names))
	core.RunBatch(len(names), cfg.Parallel, healthOf(cfg),
		func(i int) string { return names[i] },
		func(i int) (err error) {
			byIndex[i], err = runOne(ctx, names[i], cfg)
			return err
		},
		func(i int, err error) { errs[i] = err })

	out := make([]*Report, 0, len(names))
	var failures []error
	for i := range names {
		if errs[i] != nil {
			failures = append(failures, fmt.Errorf("%s: %w", names[i], errs[i]))
		}
		if byIndex[i] != nil {
			// Complete reports, and partial reports from truncated
			// runs (which also carry an error above).
			out = append(out, byIndex[i])
		}
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("repro: %d of %d workloads failed: %w",
			len(failures), len(names), errors.Join(failures...))
	}
	return out, nil
}

// Compile compiles MiniC source (with the bundled runtime library)
// into a loadable program image. It is exposed so examples and
// downstream users can analyze their own programs.
func Compile(source string) (*program.Image, error) {
	return minic.Compile(source)
}

// CompileOptions selects optional compiler passes (see minic.Options).
type CompileOptions = minic.Options

// CompileWith compiles MiniC source with compiler options (e.g.
// inlining, for the Section 6 compiler ablation).
func CompileWith(source string, opts CompileOptions) (*program.Image, error) {
	return minic.CompileOpt(source, opts)
}

// WorkloadSource returns the MiniC source text of a bundled workload
// (for compiler ablations and study).
func WorkloadSource(name string) (string, bool) {
	w, ok := workloads.ByName(name)
	if !ok {
		return "", false
	}
	return w.Source, true
}

// WorkloadInput returns the workload's input bytes for a variant.
func WorkloadInput(name string, variant int) ([]byte, bool) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, false
	}
	if variant <= 0 {
		variant = 1
	}
	return w.Input(variant), true
}

// RunSource compiles MiniC source and runs the analysis pipeline on it
// with the given input bytes. Like RunWorkload it recovers panics,
// honors ctx/cfg.Timeout/cfg.WatchdogInterval, and returns a partial
// Truncated report when the run is cut short.
func RunSource(ctx context.Context, source string, input []byte, name string, cfg Config) (rep *Report, err error) {
	defer recoverToError(healthOf(cfg), name, &rep, &err)
	if cerr := cfg.Faults.CompileError(name); cerr != nil {
		return nil, cerr
	}
	im, err := minic.Compile(source)
	if err != nil {
		return nil, err
	}
	return core.Run(ctx, im, input, name, cfg)
}

// RunImage runs the analysis pipeline on an already-compiled image
// (e.g. one built with the bundled assembler). It recovers panics,
// honors ctx/cfg.Timeout/cfg.WatchdogInterval, and returns a partial
// Truncated report when the run is cut short.
func RunImage(ctx context.Context, im *program.Image, input []byte, name string, cfg Config) (rep *Report, err error) {
	defer recoverToError(healthOf(cfg), name, &rep, &err)
	return core.Run(ctx, im, input, name, cfg)
}
