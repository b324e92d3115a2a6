package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// RunFunc computes one cell. repro.Runner.RunWorkload satisfies it
// directly (repro.Config/Report alias the core types), which is how
// the CLI threads the result cache, checkpointing, admission gate,
// and breakers through every cell.
type RunFunc func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error)

// Progress is one cell-completion notification. The callback may be
// invoked from several worker goroutines concurrently, so
// implementations must be concurrency-safe.
type Progress struct {
	Done  int // cells finished so far (including this one)
	Total int
	Cell  Cell
	Err   error // this cell's error (nil on success)
}

// Engine executes an expanded sweep grid through a RunFunc with
// bounded parallelism and merges the cell reports deterministically:
// results land by cell index, so completion order — and therefore the
// Parallel setting — can never change a byte of the artifact.
type Engine struct {
	// Run computes one cell (required).
	Run RunFunc
	// Parallel bounds concurrently running cells (0 = GOMAXPROCS).
	Parallel int
	// Metrics receives the sweep_* counters (nil = obs.Default).
	Metrics *obs.Registry
	// Progress, when set, receives one notification per finished cell.
	Progress func(Progress)
}

// Execute expands the spec and runs every cell through core.RunBatch.
// It is fail-soft: cells that error, panic (a *core.PanicError counted
// in the registry's health set), or return truncated reports are
// recorded in the result with their error text and the rest of the
// grid still runs; the returned error joins every cell failure (nil
// only when the whole grid succeeded). Only a spec that fails
// validation returns a nil Result.
//
// Cells that differ only in the reuse buffer share one census: the
// context every cell runs under carries a core.ReplayGroups registry
// for this call, so the first such cell to simulate records its census
// verdicts and the others replay them through their own buffers
// (DESIGN.md §17). Each cell still makes its own Run call; a cell whose
// report says it replayed counts in sweep_cells_replayed.
func (e *Engine) Execute(ctx context.Context, sp *Spec) (*Result, error) {
	cells, err := Expand(sp)
	if err != nil {
		return nil, err
	}
	reg := e.Metrics
	if reg == nil {
		reg = obs.Default
	}
	reg.Counter("sweep_sweeps_total").Inc()
	reg.Counter("sweep_cells_total").Add(uint64(len(cells)))

	ctx = core.WithReplayGroups(ctx, core.NewReplayGroups())
	results := make([]CellResult, len(cells))
	reps := make([]*core.Report, len(cells))
	errs := make([]error, len(cells))
	var done atomic.Int64
	core.RunBatch(len(cells), e.Parallel, reg.Health(),
		func(i int) string { return cells[i].Workload },
		func(i int) (err error) {
			reps[i], err = e.runCell(ctx, cells[i])
			return err
		},
		func(i int, err error) {
			results[i] = newCellResult(cells[i], reps[i], err)
			errs[i] = err
			if err != nil {
				reg.Counter("sweep_cells_failed").Inc()
			} else {
				reg.Counter("sweep_cells_ok").Inc()
				if m := reps[i].Metrics; m != nil && m.ExecPath == obs.ExecReplay {
					reg.Counter("sweep_cells_replayed").Inc()
				}
			}
			if e.Progress != nil {
				e.Progress(Progress{
					Done: int(done.Add(1)), Total: len(cells), Cell: cells[i], Err: err,
				})
			}
		})

	res := newResult(sp, results)
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", cells[i].ID(), err))
		}
	}
	if len(failures) > 0 {
		return res, fmt.Errorf("sweep: %d of %d cells failed: %w",
			len(failures), len(cells), errors.Join(failures...))
	}
	return res, nil
}

// runCell executes one cell under its own trace span. A report flagged
// Truncated is demoted to a failure even when the runner returned it
// without error: its statistics cover an unpredictable prefix of the
// window, so folding it into the curves would poison the comparison.
func (e *Engine) runCell(ctx context.Context, c Cell) (*core.Report, error) {
	span, ctx := obs.StartSpanCtx(ctx, "sweep.cell")
	span.SetAttr("cell", c.ID())
	span.SetAttr("workload", c.Workload)
	span.SetAttr("entries", c.Entries)
	span.SetAttr("assoc", c.Assoc)
	span.SetAttr("policy", c.Policy.String())
	defer span.End()
	rep, err := e.Run(ctx, c.Workload, c.Config)
	if err == nil && rep == nil {
		err = fmt.Errorf("sweep: runner returned no report")
	}
	if err == nil && rep.Truncated {
		err = fmt.Errorf("sweep: truncated report (%s)", rep.TruncatedReason)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	return rep, nil
}
