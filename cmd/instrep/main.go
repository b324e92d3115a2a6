// Command instrep reproduces the experiments of "An Empirical Analysis
// of Instruction Repetition" (Sodani & Sohi, ASPLOS 1998).
//
// Usage:
//
//	instrep list
//	    List the benchmark workload analogs.
//
//	instrep run [-bench NAME] [-experiment ID] [-skip N] [-measure N]
//	            [-instances N] [-reuse-entries N] [-reuse-assoc N]
//	            [-parallel N] [-timeout D] [-watchdog D]
//	            [-checkpoint-dir DIR] [-checkpoint-every N] [-resume]
//	            [-metrics text|json] [-progress]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	    Run the analysis pipeline and print the requested tables and
//	    figures ("all" runs every benchmark / renders everything).
//	    -parallel bounds how many workloads simulate concurrently
//	    (default GOMAXPROCS); -timeout bounds each workload's wall
//	    clock and -watchdog arms a deadman abort when a workload stops
//	    retiring instructions for that long; -metrics prints the run's
//	    observability document (phase wall times, simulator counters,
//	    per-observer attributed cost, nonzero health counters) after
//	    the tables; -progress renders a live stderr ticker; the profile
//	    flags write runtime/pprof profiles.
//	    If some workloads fail, the tables for the ones that succeeded
//	    still print and the command exits nonzero. A run cut short
//	    (^C, -timeout, -watchdog) still renders what it measured: its
//	    rows carry a dagger and a truncation footnote. A first ^C
//	    cancels gracefully — tables and metrics for completed workloads
//	    still print — and a second ^C kills the process.
//	    -checkpoint-dir makes runs crash-resumable: complete simulation
//	    state is snapshotted into versioned, checksummed files — every
//	    15s of wall clock by default, or every -checkpoint-every
//	    retired instructions — and -resume continues an interrupted
//	    run from its snapshot, producing a report byte-identical to an
//	    uninterrupted run.
//	    Corrupt or foreign-version snapshots are scrubbed at startup
//	    and the run falls back to starting fresh.
//
//	instrep serve [-addr HOST:PORT] [-cache-dir DIR] [-cache-entries N]
//	              [-cache-max-bytes N] [-checkpoint-dir DIR]
//	              [-skip N] [-measure N]
//	              [-request-timeout D] [-max-concurrent-sims N]
//	              [-queue-depth N] [-breaker-threshold N]
//	              [-breaker-cooldown D] [-retry-after D]
//	              [-serve-stale=BOOL] [-trace-store N] [-trace-slow D]
//	              [-access-log FILE] [-quiet]
//	    Serve reports over HTTP backed by the content-addressed result
//	    cache: GET /v1/report/{workload} (canonical report JSON),
//	    /v1/tables/{workload} (rendered tables; "all" serves every
//	    workload, ?experiment= selects a subset), /v1/workloads,
//	    /healthz, and /metrics (JSON, or Prometheus text exposition via
//	    content negotiation). Each distinct (workload, config) pair
//	    is simulated at most once — concurrent cold requests share one
//	    simulation — then served from memory/disk. The daemon is
//	    overload-hardened: cold simulations pass a bounded admission
//	    gate (-max-concurrent-sims slots, -queue-depth FIFO waiters,
//	    excess shed with 503 + Retry-After), workloads failing
//	    -breaker-threshold times in a row trip a per-workload circuit
//	    breaker for -breaker-cooldown, and -serve-stale answers shed or
//	    failed requests with the last known-good report under an
//	    X-Instrep-Stale header. -cache-max-bytes bounds the disk cache
//	    (LRU eviction); orphaned temp files from a crash are scrubbed
//	    at startup. -checkpoint-dir makes simulations crash-resumable:
//	    a daemon killed mid-simulation resumes from the last snapshot
//	    at the next request for the same report, and checkpoint_*
//	    counters join /metrics. /healthz reports
//	    starting/ready/degraded/draining.
//	    Every /v1 request is traced end to end: the response carries an
//	    X-Instrep-Trace ID resolvable at GET /debug/traces/{id} to the
//	    request's span tree (queue wait, simulation phases, cache
//	    write); /debug/traces lists recent traces (-trace-store bounds
//	    retention; shed/errored/slower-than--trace-slow requests are
//	    always kept) and /debug/runs lists in-flight simulations with
//	    phase, retired count, and live retire rate. -access-log FILE
//	    appends one JSON line per request ("-" = stderr).
//	    -job-dir enables the durable async job tier (POST /v1/jobs,
//	    GET /v1/jobs/{id}[/report], DELETE /v1/jobs/{id}, /debug/jobs):
//	    submissions are journaled to disk, deduplicated by result-cache
//	    fingerprint, executed under the admission gate with -job-retries
//	    transient retries (exponential backoff; compile errors never
//	    retry) and an optional per-attempt -job-deadline, and survive
//	    kill -9: on restart the journal replays, interrupted jobs
//	    re-enqueue, and — with -checkpoint-dir — resume from their last
//	    snapshot, producing reports byte-identical to uninterrupted
//	    runs (-job-checkpoint-every N paces job snapshots by retire
//	    count instead of wall clock).
//	    ^C or SIGTERM shuts down gracefully: in-flight simulations are
//	    canceled and running jobs are journaled as interrupted for the
//	    next process to finish.
//
//	instrep sweep [-spec FILE | -entries LIST -assoc LIST -policy LIST
//	              [-bench LIST] [-skip N] [-measure N] [-instances N]
//	              [-input-variant N]]
//	              [-parallel N] [-timeout D] [-watchdog D]
//	              [-cache-dir DIR] [-checkpoint-dir DIR]
//	              [-checkpoint-every N] [-resume]
//	              [-csv FILE] [-json FILE] [-progress] [-dry-run]
//	    Run a reuse-buffer design-space sweep: the cross product of the
//	    axis lists (buffer entries, associativity, replacement policy
//	    lru/fifo/random, workloads) expands into one simulation cell per
//	    point, cells execute through the same result cache and
//	    checkpoint machinery as run/serve, and the merged comparative
//	    artifact — per-cell and cross-workload-mean hit rates — renders
//	    as canonical CSV (stdout by default) and/or JSON. The artifact
//	    is deterministic: repeats and any -parallel produce identical
//	    bytes, and with -cache-dir a re-run of the same sweep simulates
//	    nothing. A JSON -spec file expresses the same axes (plus a
//	    multi-window axis) declaratively. Failed cells don't abort the
//	    sweep: surviving cells render, failed rows carry the error, and
//	    the exit status is nonzero. -dry-run prints the expanded grid.
//
//	instrep job submit [-addr URL] [-bench NAME] [-skip N] [-measure N]
//	                   [-instances N] [-reuse-entries N] [-reuse-assoc N]
//	                   [-reuse-policy P] [-input-variant N] [-wait]
//	instrep job status [-addr URL] ID
//	instrep job fetch [-addr URL] [-wait] ID
//	    Client for a serve daemon's async job tier (-job-dir). submit
//	    posts a measurement spec (fields left unset default to the
//	    server's own run configuration) and prints the job document —
//	    resubmitting an identical measurement returns the existing job;
//	    -wait polls until the job is terminal. status prints one job
//	    document. fetch prints a done job's canonical report JSON;
//	    -wait polls (honoring the server's Retry-After pacing) until
//	    the report is ready.
//
//	instrep exec [-input FILE] [-max N] PROGRAM.c
//	    Compile a MiniC program and execute it on the simulator,
//	    echoing its output (a development aid for writing workloads).
//
//	instrep asm PROGRAM.c
//	    Compile a MiniC program and print the generated assembly.
//
//	instrep disasm PROGRAM.c | -workload NAME
//	    Disassemble a compiled program or workload: function
//	    boundaries, encodings, mnemonics, resolved targets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/reportserver"
	"repro/internal/resultcache"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// First ^C (or a container runtime's SIGTERM) cancels the run
	// gracefully (partial tables and metrics still print; serve drains
	// in-flight work and journals jobs as interrupted); once the
	// context is canceled, stop() restores the default handler so a
	// second signal kills the process immediately.
	ctx, stop := notifyContext(context.Background())
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "job":
		err = cmdJob(ctx, os.Args[2:])
	case "exec":
		err = cmdExec(os.Args[2:])
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "instrep:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: instrep <command> [flags]

commands:
  list    list benchmark workloads
  run     run the repetition analyses and print tables/figures
  serve   serve reports over HTTP with a content-addressed result cache
  sweep   sweep the reuse-buffer design space and emit comparative CSV/JSON
  job     submit/poll/fetch async measurement jobs on a serve daemon
  exec    compile and run a MiniC program
  asm     compile a MiniC program to assembly
  disasm  disassemble a compiled MiniC program or workload`)
}

func cmdList() error {
	fmt.Printf("%-8s %-10s %s\n", "name", "analog", "description")
	for _, w := range repro.WorkloadInfos() {
		fmt.Printf("%-8s %-10s %s\n", w.Name, w.Analog, w.Description)
	}
	fmt.Println("\nexperiments:", strings.Join(repro.Experiments(), " "))
	return nil
}

// validateChoice checks value against the valid choices ("all" plus
// the listed names), returning an error that enumerates the choices.
func validateChoice(flagName, value string, valid []string) error {
	for _, v := range valid {
		if value == v {
			return nil
		}
	}
	return fmt.Errorf("invalid -%s %q (valid: %s, or \"all\")",
		flagName, value, strings.Join(valid, ", "))
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "all", "workload name or 'all'")
	experiment := fs.String("experiment", "all", "experiment id (table1..table10, fig1..fig6) or 'all'")
	skip := fs.Uint64("skip", 1_000_000, "instructions to skip before measuring")
	measure := fs.Uint64("measure", 5_000_000, "instructions to measure (0 = to completion)")
	instances := fs.Int("instances", 0, "per-instruction instance buffer limit (0 = paper's 2000)")
	reuseEntries := fs.Int("reuse-entries", 0, "reuse buffer entries (0 = paper's 8192)")
	reuseAssoc := fs.Int("reuse-assoc", 0, "reuse buffer associativity (0 = paper's 4)")
	variant := fs.Int("input-variant", 1, "workload input data set (1 = standard, 2 = alternate)")
	parallel := fs.Int("parallel", 0, "max workloads simulated concurrently (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-workload wall-clock limit (0 = none)")
	watchdog := fs.Duration("watchdog", 0, "abort a workload making no retire progress for this long (0 = off)")
	noTranslate := fs.Bool("no-translate", false, "force the single-step interpreter instead of the block translation cache (same reports, slower)")
	waves := fs.Int("waves", 1, "min-of-N-waves measurement: run every workload N times and keep the fastest wave's report, with all wave retire rates recorded under metrics (pointless with -cache-dir: cached waves repeat the first measurement)")
	asJSON := fs.Bool("json", false, "emit the raw reports as JSON instead of tables")
	metrics := fs.String("metrics", "", "print run metrics after the tables: 'text' or 'json'")
	progress := fs.Bool("progress", false, "render a live progress ticker on stderr")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory: reuse reports from prior runs with the same config (\"\" = off)")
	checkpointDir := fs.String("checkpoint-dir", "", "crash-resume checkpoint directory: snapshot complete run state at chunk boundaries so an interrupted run can continue (\"\" = off)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "retired instructions between checkpoints (0 = pace by wall clock, every 15s; needs -checkpoint-dir)")
	resume := fs.Bool("resume", false, "resume interrupted runs from -checkpoint-dir snapshots instead of starting over")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate the selectors up front so a bad name fails with the
	// choices listed instead of deep in the pipeline.
	if *bench != "all" {
		if err := validateChoice("bench", *bench, repro.Workloads()); err != nil {
			return err
		}
	}
	if *experiment != "all" {
		for _, e := range strings.Split(*experiment, ",") {
			if err := validateChoice("experiment", strings.TrimSpace(e), repro.Experiments()); err != nil {
				return err
			}
		}
	}
	switch *metrics {
	case "", "text", "json":
	default:
		return fmt.Errorf("invalid -metrics %q (valid: text, json)", *metrics)
	}
	if *checkpointDir == "" {
		if *checkpointEvery > 0 {
			return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
		}
		if *resume {
			return fmt.Errorf("-resume needs -checkpoint-dir")
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	cfg := repro.Config{
		SkipInstructions:    *skip,
		MeasureInstructions: *measure,
		MaxInstances:        *instances,
		ReuseEntries:        *reuseEntries,
		ReuseAssoc:          *reuseAssoc,
		InputVariant:        *variant,
		Parallel:            *parallel,
		Timeout:             *timeout,
		WatchdogInterval:    *watchdog,
		DisableTranslation:  *noTranslate,
	}
	if *progress {
		// The run registry feeds the multi-workload display: when
		// several simulations are in flight the ticker renders one
		// segment per run from registry snapshots (the same live view
		// the serve daemon exposes at /debug/runs).
		runs := repro.NewRunRegistry()
		cfg.Runs = runs
		t := newTicker(os.Stderr, runs)
		cfg.Progress = t.update
		defer t.finish()
	}

	// The cache-aware runner is the same code path the serve daemon
	// uses; with no -cache-dir it degenerates to plain RunAll.
	runner := &repro.Runner{}
	if *cacheDir != "" {
		c, err := resultcache.New(0, *cacheDir)
		if err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		runner.Cache = c
	}
	if *checkpointDir != "" {
		// Open scrubs the directory: orphaned temp files and snapshots
		// that fail validation are deleted up front, so -resume can
		// never start from a corrupt or foreign-version snapshot.
		store, err := checkpoint.Open(*checkpointDir)
		if err != nil {
			return fmt.Errorf("opening -checkpoint-dir: %w", err)
		}
		runner.Checkpoint = &repro.CheckpointPolicy{
			Store:  store,
			Every:  *checkpointEvery,
			Resume: *resume,
			Notify: func(ev repro.CheckpointEvent) {
				if ev.Resumed {
					fmt.Fprintf(os.Stderr, "instrep: %s: resumed at %d retired instructions (%s phase)\n",
						ev.Benchmark, ev.Retired, ev.Phase)
				}
			},
		}
	}

	// runErr carries a partial failure: the surviving reports —
	// including truncated partial reports from runs cut short — still
	// render below, and the error is returned at the end so the exit
	// status reflects the failure.
	runOnce := func() ([]*repro.Report, error) {
		if *bench == "all" {
			return runner.RunAll(ctx, cfg)
		}
		r, err := runner.RunWorkload(ctx, *bench, cfg)
		if r == nil {
			return nil, err
		}
		return []*repro.Report{r}, err
	}

	var runErr error
	var reports []*repro.Report
	reports, runErr = runOnce()
	if runErr != nil && len(reports) == 0 {
		return runErr
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "instrep: continuing with %d surviving reports: %v\n", len(reports), runErr)
	}

	// Min-of-N-waves: repeat the whole run, keep each workload's
	// fastest wave (the least-perturbed measurement of the machine's
	// speed — reports are identical across waves, only timing differs),
	// and record every wave's rate so the spread is visible.
	if *waves > 1 && runErr == nil {
		rates := make(map[string][]float64, len(reports))
		index := make(map[string]int, len(reports))
		for i, r := range reports {
			rates[r.Benchmark] = []float64{r.Metrics.RetireRateMIPS}
			index[r.Benchmark] = i
		}
		for w := 1; w < *waves; w++ {
			next, err := runOnce()
			if err != nil {
				return fmt.Errorf("wave %d/%d: %w", w+1, *waves, err)
			}
			for _, nr := range next {
				i, ok := index[nr.Benchmark]
				if !ok {
					continue
				}
				rates[nr.Benchmark] = append(rates[nr.Benchmark], nr.Metrics.RetireRateMIPS)
				if nr.Metrics.RetireRateMIPS > reports[i].Metrics.RetireRateMIPS {
					reports[i] = nr
				}
			}
		}
		for _, r := range reports {
			r.Metrics.Waves = obs.NewWaveStats(rates[r.Benchmark])
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
		return runErr
	}
	// -metrics json emits only the machine-readable metrics document;
	// text metrics follow the tables.
	if *metrics == "json" {
		var ms []*repro.RunMetrics
		for _, r := range reports {
			ms = append(ms, r.Metrics)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ms); err != nil {
			return err
		}
		return runErr
	}
	if *experiment == "all" {
		fmt.Print(repro.FormatAll(reports))
	} else {
		for _, e := range strings.Split(*experiment, ",") {
			s, err := repro.Format(strings.TrimSpace(e), reports)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	if *metrics == "text" {
		fmt.Println(repro.FormatMetrics(reports))
		if hc := obs.Health.Values(); len(hc) > 0 {
			fmt.Println("health:")
			for _, v := range hc {
				fmt.Printf("  %-18s %d\n", v.Name, v.Value)
			}
		}
	}
	return runErr
}

// cmdServe runs the report-serving daemon: an HTTP API over the
// content-addressed result cache. The first request for a (workload,
// config) pair simulates; every later one — and every concurrent
// duplicate — is served from the cache.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8100", "listen address")
	cacheDir := fs.String("cache-dir", "", "persist cached reports under this directory (\"\" = memory only)")
	checkpointDir := fs.String("checkpoint-dir", "", "crash-resume checkpoint directory: interrupted simulations resume at the next request for the same report (\"\" = off)")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory cache capacity in reports (0 = default)")
	skip := fs.Uint64("skip", 1_000_000, "instructions to skip before measuring")
	measure := fs.Uint64("measure", 5_000_000, "instructions to measure (0 = to completion)")
	instances := fs.Int("instances", 0, "per-instruction instance buffer limit (0 = paper's 2000)")
	reuseEntries := fs.Int("reuse-entries", 0, "reuse buffer entries (0 = paper's 8192)")
	reuseAssoc := fs.Int("reuse-assoc", 0, "reuse buffer associativity (0 = paper's 4)")
	variant := fs.Int("input-variant", 1, "workload input data set (1 = standard, 2 = alternate)")
	parallel := fs.Int("parallel", 0, "max workloads simulated concurrently for /v1/tables/all (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-workload simulation wall-clock limit (0 = none)")
	watchdog := fs.Duration("watchdog", 0, "abort a simulation making no retire progress for this long (0 = off)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request timeout including any simulation (0 = the 2m default, negative = none)")
	maxSims := fs.Int("max-concurrent-sims", 0, "max simulations in flight across all requests (0 = GOMAXPROCS, negative = unbounded)")
	queueDepth := fs.Int("queue-depth", 0, "cold requests that may wait for a simulation slot before being shed with 503 (0 = default 8, negative = none)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a workload's circuit breaker (0 = default 3, negative = disabled)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker rejection window before a half-open probe (0 = default 30s)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = default 2s)")
	serveStale := fs.Bool("serve-stale", true, "answer shed or failed requests with the last known-good report (X-Instrep-Stale: true)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "disk cache capacity in bytes, LRU-evicted (0 = unbounded)")
	traceStore := fs.Int("trace-store", 0, "request traces retained per class for /debug/traces (0 = default 256)")
	traceSlow := fs.Duration("trace-slow", 0, "pin traces of requests at least this slow to the always-keep class (0 = default 1s, negative = never)")
	accessLog := fs.String("access-log", "", "append one JSON line per request to this file (\"-\" = stderr, \"\" = off)")
	quiet := fs.Bool("quiet", false, "suppress request logging")
	jobDir := fs.String("job-dir", "", "durable async job journal directory: enables POST /v1/jobs, crash-safe across restarts (\"\" = off; pair with -checkpoint-dir so interrupted jobs resume mid-simulation)")
	jobRetries := fs.Int("job-retries", 0, "transient-failure retries per job (0 = default 3, negative = none)")
	jobDeadline := fs.Duration("job-deadline", 0, "per-attempt wall-clock limit for async jobs (0 = none)")
	jobWorkers := fs.Int("job-workers", 0, "concurrent async job executors (0 = default 2; simulations still share the admission gate)")
	jobCkptEvery := fs.Uint64("job-checkpoint-every", 0, "retired instructions between job snapshots (0 = wall-clock pacing; needs -job-dir and -checkpoint-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	if *jobDir == "" && (*jobRetries != 0 || *jobDeadline != 0 || *jobWorkers != 0 || *jobCkptEvery != 0) {
		return fmt.Errorf("-job-retries/-job-deadline/-job-workers/-job-checkpoint-every need -job-dir")
	}
	if *jobCkptEvery != 0 && *checkpointDir == "" {
		return fmt.Errorf("-job-checkpoint-every needs -checkpoint-dir")
	}

	cache, err := resultcache.NewWith(resultcache.Options{
		MaxEntries:   *cacheEntries,
		Dir:          *cacheDir,
		MaxDiskBytes: *cacheMaxBytes,
	})
	if err != nil {
		return fmt.Errorf("opening -cache-dir: %w", err)
	}
	var ckStore *checkpoint.Store
	if *checkpointDir != "" {
		ckStore, err = checkpoint.Open(*checkpointDir)
		if err != nil {
			return fmt.Errorf("opening -checkpoint-dir: %w", err)
		}
	}
	level := slog.LevelDebug
	if *quiet {
		level = slog.LevelError
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	var access *slog.Logger
	switch *accessLog {
	case "":
	case "-":
		access = reportserver.NewAccessLog(os.Stderr)
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -access-log: %w", err)
		}
		defer f.Close()
		access = reportserver.NewAccessLog(f)
	}
	srv := reportserver.New(reportserver.Config{
		RunConfig: repro.Config{
			SkipInstructions:    *skip,
			MeasureInstructions: *measure,
			MaxInstances:        *instances,
			ReuseEntries:        *reuseEntries,
			ReuseAssoc:          *reuseAssoc,
			InputVariant:        *variant,
			Parallel:            *parallel,
			Timeout:             *timeout,
			WatchdogInterval:    *watchdog,
		},
		Cache:              cache,
		Checkpoints:        ckStore,
		RequestTimeout:     *reqTimeout,
		MaxConcurrentSims:  *maxSims,
		QueueDepth:         *queueDepth,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		RetryAfter:         *retryAfter,
		ServeStale:         *serveStale,
		TraceStoreSize:     *traceStore,
		SlowTraceThreshold: *traceSlow,
		Log:                log,
		AccessLog:          access,
	})
	if *jobDir != "" {
		if err := srv.OpenJobs(reportserver.JobsConfig{
			Dir:             *jobDir,
			Retries:         *jobRetries,
			Deadline:        *jobDeadline,
			Workers:         *jobWorkers,
			CheckpointEvery: *jobCkptEvery,
		}); err != nil {
			return fmt.Errorf("opening -job-dir: %w", err)
		}
	}
	log.Info("serving reports", "addr", *addr, "cache_dir", *cacheDir, "job_dir", *jobDir)
	return srv.ListenAndServe(ctx, *addr)
}

// ticker renders a single-line live progress display on w. For a lone
// run it shows phase, instructions retired, retire rate, and ETA; when
// the run registry reports several simulations in flight (RunAll with
// -parallel) it renders one compact segment per run instead, so
// concurrent workloads stop overwriting each other's lines. It is safe
// for concurrent updates.
type ticker struct {
	mu      sync.Mutex
	w       *os.File
	runs    *repro.RunRegistry // nil = per-callback rendering only
	last    time.Time
	started map[string]time.Time // bench/phase -> start
	active  bool
}

func newTicker(w *os.File, runs *repro.RunRegistry) *ticker {
	return &ticker{w: w, runs: runs, started: make(map[string]time.Time)}
}

func (t *ticker) update(p repro.Progress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := p.Benchmark + "/" + p.Phase
	start, ok := t.started[key]
	if !ok {
		start = time.Now()
		t.started[key] = start
	}
	now := time.Now()
	// Throttle redraws; always draw phase-final updates.
	if !p.Final && now.Sub(t.last) < 200*time.Millisecond {
		return
	}
	t.last = now
	if t.runs != nil {
		if snap := t.runs.Snapshot(); len(snap) > 1 {
			var parts []string
			for _, ri := range snap {
				seg := fmt.Sprintf("%s %s %s", ri.Benchmark, ri.Phase, fmtMillions(ri.Retired))
				if ri.MIPS > 0 {
					seg += fmt.Sprintf(" %.0fMIPS", ri.MIPS)
				}
				parts = append(parts, seg)
			}
			fmt.Fprintf(t.w, "\r\x1b[K[%d running] %s", len(snap), strings.Join(parts, " | "))
			t.active = true
			return
		}
	}
	elapsed := now.Sub(start).Seconds()
	// Rates over a few milliseconds are noise; wait for a real sample.
	var rate float64
	if elapsed >= 0.05 {
		rate = float64(p.Done) / elapsed / 1e6
	}
	line := fmt.Sprintf("%s %s: %s insts", p.Benchmark, p.Phase, fmtMillions(p.Done))
	if rate > 0 {
		line += fmt.Sprintf("  %.1f MIPS", rate)
	}
	if p.Total > 0 && rate > 0 && p.Done < p.Total {
		eta := float64(p.Total-p.Done) / (rate * 1e6)
		line += fmt.Sprintf("  %3.0f%%  ETA %.1fs", 100*float64(p.Done)/float64(p.Total), eta)
	}
	if p.Final {
		line += "  done"
	}
	fmt.Fprintf(t.w, "\r\x1b[K%s", line)
	t.active = true
}

// finish terminates the ticker line so later output starts clean.
func (t *ticker) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active {
		fmt.Fprintln(t.w)
		t.active = false
	}
}

func fmtMillions(n uint64) string {
	if n >= 1_000_000 {
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	}
	return fmt.Sprintf("%.0fk", float64(n)/1e3)
}

func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	inputFile := fs.String("input", "", "file with program input bytes")
	max := fs.Uint64("max", 100_000_000, "instruction budget (0 = unlimited)")
	trace := fs.Uint64("trace", 0, "write an execution trace of the first N instructions to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("exec wants one MiniC source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var input []byte
	if *inputFile != "" {
		input, err = os.ReadFile(*inputFile)
		if err != nil {
			return err
		}
	}
	im, err := minic.Compile(string(src))
	if err != nil {
		return err
	}
	m := cpu.New(im, input)
	if *trace > 0 {
		m.Attach(cpu.NewTracer(os.Stderr, *trace))
	}
	n, err := m.Run(*max)
	os.Stdout.Write(m.Output.Bytes())
	if err != nil {
		return fmt.Errorf("after %d instructions: %w", n, err)
	}
	if m.Halted {
		slog.Info("program exited", "code", m.ExitCode, "instructions", n)
	} else {
		slog.Warn("instruction budget exhausted", "instructions", n)
	}
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	workload := fs.String("workload", "", "disassemble a bundled workload instead of a file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var im *program.Image
	if *workload != "" {
		w, ok := workloads.ByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		var err error
		im, err = w.Image()
		if err != nil {
			return err
		}
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("disasm wants one MiniC source file or -workload NAME")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		im, err = minic.Compile(string(src))
		if err != nil {
			return err
		}
	}
	return program.Disassemble(im, os.Stdout)
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm wants one MiniC source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	text, err := minic.CompileToAsm(string(src))
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
