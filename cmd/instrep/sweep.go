package main

// instrep sweep: the design-space sweep front end. Axes come from a
// JSON spec file or from comma-list flags; cells execute through the
// same cache/checkpoint-aware repro.Runner the run and serve commands
// use, and the merged comparative artifact renders as canonical CSV
// and/or JSON. See internal/sweep and DESIGN.md §17.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/reuse"
	"repro/internal/sweep"
)

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specFile := fs.String("spec", "", "JSON sweep spec file (\"-\" = stdin); exclusive with the axis flags")
	entries := fs.String("entries", "1024,2048,4096,8192,16384,32768,65536", "comma-separated reuse-buffer entry counts")
	assoc := fs.String("assoc", "4", "comma-separated associativities")
	policy := fs.String("policy", "lru", "comma-separated replacement policies ("+strings.Join(reuse.PolicyNames(), ", ")+")")
	bench := fs.String("bench", "all", "comma-separated workloads, or 'all'")
	skip := fs.Uint64("skip", 1_000_000, "instructions to skip before measuring (every cell)")
	measure := fs.Uint64("measure", 5_000_000, "instructions to measure (0 = to completion)")
	instances := fs.Int("instances", 0, "per-instruction instance buffer limit (0 = paper's 2000)")
	variant := fs.Int("input-variant", 1, "workload input data set (1 = standard, 2 = alternate)")
	parallel := fs.Int("parallel", 0, "max cells simulated concurrently (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-cell wall-clock limit (0 = none)")
	watchdog := fs.Duration("watchdog", 0, "abort a cell making no retire progress for this long (0 = off)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory: cells cached by prior runs or sweeps are served without simulating (\"\" = off)")
	checkpointDir := fs.String("checkpoint-dir", "", "crash-resume checkpoint directory for cell simulations (\"\" = off)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "retired instructions between checkpoints (0 = wall-clock pacing; needs -checkpoint-dir)")
	resume := fs.Bool("resume", false, "resume interrupted cell runs from -checkpoint-dir snapshots")
	csvOut := fs.String("csv", "-", "write the canonical CSV artifact to this file (\"-\" = stdout, \"\" = off)")
	jsonOut := fs.String("json", "", "write the canonical JSON artifact to this file (\"-\" = stdout, \"\" = off)")
	progress := fs.Bool("progress", false, "render a live cell-completion ticker on stderr")
	dryRun := fs.Bool("dry-run", false, "expand and print the cell grid without simulating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep takes no positional arguments")
	}
	if *checkpointDir == "" {
		if *checkpointEvery > 0 {
			return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
		}
		if *resume {
			return fmt.Errorf("-resume needs -checkpoint-dir")
		}
	}

	sp, err := sweepSpec(fs, *specFile, *entries, *assoc, *policy, *bench,
		*skip, *measure, *instances, *variant)
	if err != nil {
		return err
	}
	cells, err := sweep.Expand(sp)
	if err != nil {
		return err
	}
	if *dryRun {
		for _, c := range cells {
			fmt.Println(c.ID())
		}
		fmt.Fprintf(os.Stderr, "instrep: %d cells\n", len(cells))
		return nil
	}

	runner := &repro.Runner{}
	if *cacheDir != "" {
		// Size the memory tier to the grid so a warm re-run of the
		// whole sweep stays resident (the default 64 would thrash on
		// bigger grids).
		c, err := resultcache.NewWith(resultcache.Options{
			MaxEntries: max(resultcache.DefaultMaxEntries, 2*len(cells)),
			Dir:        *cacheDir,
		})
		if err != nil {
			return fmt.Errorf("opening -cache-dir: %w", err)
		}
		runner.Cache = c
	}
	var cellsResumed atomic.Int64
	if *checkpointDir != "" {
		store, err := checkpoint.Open(*checkpointDir)
		if err != nil {
			return fmt.Errorf("opening -checkpoint-dir: %w", err)
		}
		runner.Checkpoint = &repro.CheckpointPolicy{
			Store:  store,
			Every:  *checkpointEvery,
			Resume: *resume,
			Notify: sweepResumeNotify(&cellsResumed),
		}
	}

	eng := &sweep.Engine{
		// Timeout and watchdog shape execution only; the cell's
		// measurement fields, and so its artifact row, stay the spec's.
		Run: func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
			cfg.Timeout, cfg.WatchdogInterval = *timeout, *watchdog
			return runner.RunWorkload(ctx, workload, cfg)
		},
		Parallel: *parallel,
	}
	if *progress {
		var mu sync.Mutex
		eng.Progress = func(p sweep.Progress) {
			mu.Lock()
			defer mu.Unlock()
			status := "ok"
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "\r\x1b[K[%d/%d] %s %s", p.Done, p.Total, p.Cell.ID(), status)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	replayed := obs.Default.Counter("sweep_cells_replayed")
	replayedBefore := replayed.Value()
	res, runErr := eng.Execute(ctx, sp)
	if res == nil {
		return runErr
	}
	// Cells that differ only in the reuse buffer replay the census
	// verdicts of the first of them to simulate, checkpointed or not
	// (DESIGN.md §17). A replay loads no snapshot, so it counts as
	// neither resumed nor started fresh.
	cellsReplayed := int64(replayed.Value() - replayedBefore)
	fmt.Fprintf(os.Stderr, "instrep: %d of %d cells replayed from a sibling's census verdicts\n",
		cellsReplayed, len(cells))
	if *resume {
		resumed := cellsResumed.Load()
		fmt.Fprintf(os.Stderr, "instrep: %d cells resumed from checkpoints, %d started fresh\n",
			resumed, int64(len(cells))-resumed-cellsReplayed)
	}
	if runErr != nil {
		// Fail-soft: the surviving cells still render below (failed
		// rows carry their error text), and the exit status reflects
		// the partial failure.
		fmt.Fprintf(os.Stderr, "instrep: rendering partial sweep: %v\n", runErr)
	}
	if err := writeArtifact(*csvOut, res.CSV()); err != nil {
		return err
	}
	if *jsonOut != "" {
		js, err := res.JSON()
		if err != nil {
			return err
		}
		if err := writeArtifact(*jsonOut, js); err != nil {
			return err
		}
	}
	return runErr
}

// sweepSpec resolves the sweep's spec: a JSON file when -spec is
// given (then the axis flags must stay untouched — half-file,
// half-flag grids are a recipe for measuring the wrong thing), flags
// otherwise.
func sweepSpec(fs *flag.FlagSet, specFile, entries, assoc, policy, bench string,
	skip, measure uint64, instances, variant int) (*sweep.Spec, error) {
	if specFile != "" {
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "entries", "assoc", "policy", "bench", "skip", "measure", "instances", "input-variant":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return nil, fmt.Errorf("-spec is exclusive with the axis flags (%s)", strings.Join(conflict, ", "))
		}
		var data []byte
		var err error
		if specFile == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(specFile)
		}
		if err != nil {
			return nil, fmt.Errorf("reading -spec: %w", err)
		}
		return sweep.ParseSpec(data)
	}
	sp := &sweep.Spec{
		Skip:         skip,
		Measure:      measure,
		MaxInstances: instances,
		InputVariant: variant,
	}
	var err error
	if sp.Entries, err = intList("entries", entries); err != nil {
		return nil, err
	}
	if sp.Assoc, err = intList("assoc", assoc); err != nil {
		return nil, err
	}
	sp.Policies = splitList(policy)
	if bench != "all" {
		sp.Workloads = splitList(bench)
	}
	return sp, nil
}

// sweepResumeNotify builds the checkpoint Notify for a sweep: each
// cell restored from a snapshot bumps the local tally (the post-sweep
// stderr line) and the sweep_cells_resumed counter, which lands in
// obs.Default next to the engine's other sweep_* metrics. Snapshot
// writes pass through uncounted.
func sweepResumeNotify(resumed *atomic.Int64) func(repro.CheckpointEvent) {
	return func(ev repro.CheckpointEvent) {
		if ev.Resumed {
			resumed.Add(1)
			obs.Default.Counter("sweep_cells_resumed").Inc()
		}
	}
}

// splitList splits a comma list, trimming blanks ("a, b" = ["a","b"]).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// intList parses a comma list of integers for an axis flag.
func intList(name, s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid -%s value %q", name, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s is empty", name)
	}
	return out, nil
}

// writeArtifact writes an artifact to path ("-" = stdout).
func writeArtifact(path string, data []byte) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
