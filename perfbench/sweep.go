package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// goldenSweepCSV is the pinned artifact of goldenSpec.
var goldenSweepCSV = filepath.Join("testdata", "golden", "sweep", "sweep.csv")

// goldenSpec is the grid pinned under testdata/golden/sweep (the
// repository's goldenSweepSpec): 3 sizes × 2 associativities × 2
// policies × 8 programs = 96 cells of skip 10k, measure 50k.
func goldenSpec() *sweep.Spec {
	return &sweep.Spec{
		Entries:  []int{1024, 8192, 65536},
		Assoc:    []int{1, 4},
		Policies: []string{"lru", "random"},
		Skip:     10_000,
		Measure:  50_000,
	}
}

// sweepParallel is the engine's cell concurrency, at most maxProcs.
const sweepParallel = 2

// sweepWorkload runs the paper's Table 10 design space: the golden grid
// through sweep.Engine and a repro.Runner with a fresh on-disk result
// cache per grid, so every cell simulates. Each grid is set up anew:
// compile the programs and open the grid's cache. The primary operation
// is one cell; the batch is one grid.
func sweepWorkload(r *run) (*sample, error) {
	golden, err := os.ReadFile(goldenSweepCSV)
	if err != nil {
		return nil, err
	}
	s := &sample{}
	if err := warmImages(r.ctx); err != nil {
		return nil, err
	}

	spec := goldenSpec()
	start := time.Now()
	for len(s.batches) == 0 || time.Since(start) < r.seconds {
		var dir string
		var cache *resultcache.Cache
		err := timeSetup(s, func() error {
			if err := compileAll(); err != nil {
				return err
			}
			if dir, err = os.MkdirTemp(r.tmp, "cache-"); err != nil {
				return err
			}
			cache, err = resultcache.NewWith(resultcache.Options{Dir: dir})
			return err
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := runGrid(r, s, spec, cache)
		s.batches = append(s.batches, time.Since(t0))
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		for i := range res.Cells {
			if c := &res.Cells[i]; !c.OK() {
				r.fail("sweep cell %s/%d/%d/%s: %s", c.Workload, c.Entries, c.Assoc, c.Policy, c.Error)
			} else {
				r.ok()
			}
		}
		if got := res.CSV(); !bytes.Equal(got, golden) {
			r.fail("sweep CSV differs from %s", goldenSweepCSV)
		} else {
			r.ok()
		}
	}
	s.opsWall = sum(s.batches)
	s.batchWall = s.opsWall
	return s, nil
}

// runGrid executes one grid through cache, timing (and, on a traced
// run, tracing) every cell through a RunFunc wrapper. Cells that fail
// are left in the result for the caller to count.
func runGrid(r *run, s *sample, spec *sweep.Spec, cache *resultcache.Cache) (*sweep.Result, error) {
	runner := &repro.Runner{Cache: cache}
	cell := func(ctx context.Context, workload string, cfg repro.Config) (*repro.Report, error) {
		sp := r.tracer.begin("bench.cell")
		var tr *obs.Trace
		if sp != nil {
			tr = obs.NewTrace("cell")
			ctx = obs.WithTrace(ctx, tr)
		}
		t0 := time.Now()
		rep, err := runner.RunWorkload(ctx, workload, cfg)
		d := time.Since(t0)
		sp.end()
		if tr != nil {
			tr.End()
			sp.attach(tr.Doc().Spans, t0)
		}
		s.addOp(d)
		s.sim.add(rep)
		return rep, err
	}
	eng := &sweep.Engine{Run: cell, Parallel: sweepParallel, Metrics: obs.NewRegistry()}
	res, err := eng.Execute(r.ctx, spec)
	if err != nil && res == nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return res, nil
}
