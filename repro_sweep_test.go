package repro_test

// Sweep-engine integration contracts, cell by cell against the
// standalone runner:
//
//   - Differential: every cell report a sweep produces is
//     byte-identical (canonical JSON) to RunWorkload at the same
//     config — through a cold cache, a warm cache, and any
//     parallelism. The sweep engine must add exactly nothing to the
//     measurement.
//   - Warm-cache economics: re-running a sweep against its own cache
//     simulates zero cells (cache_* and sweep_* counters prove it)
//     and still renders byte-identical artifacts.
//   - Golden corpus: a 3-size × 2-assoc × 2-policy grid over all
//     eight workloads is pinned under testdata/golden/sweep/ as both
//     CSV and JSON; regenerate deliberately with
//
//	go test -run TestGoldenSweep -update .

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// diffSpec is the differential grid: small but covering both set-index
// paths (64 is pow2-sets at assoc 1 and 4; 8192 likewise), every
// replacement policy, and two workloads with different instruction
// mixes. 24 cells × ~21k instructions keeps it race-detector friendly.
func diffSpec() *sweep.Spec {
	return &sweep.Spec{
		Entries:   []int{64, 8192},
		Assoc:     []int{1, 4},
		Policies:  []string{"lru", "fifo", "random"},
		Workloads: []string{"lzw", "scrip"},
		Skip:      1_000,
		Measure:   20_000,
	}
}

func TestSweepDifferentialAgainstStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	ctx := context.Background()
	sp := diffSpec()
	cells, err := sweep.Expand(sp)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := resultcache.NewWith(resultcache.Options{
		MaxEntries: 2 * len(cells),
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := &repro.Runner{Cache: cache}

	// Cold pass at full parallelism: every cell is a cache miss.
	coldReg := obs.NewRegistry()
	eng := &sweep.Engine{Run: runner.RunWorkload, Parallel: runtime.GOMAXPROCS(0), Metrics: coldReg}
	cold, err := eng.Execute(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := coldReg.Counter("sweep_cells_ok").Value(); got != uint64(len(cells)) {
		t.Errorf("cold sweep_cells_ok = %d, want %d", got, len(cells))
	}
	// Every cell but one per workload replays its group leader's census
	// verdicts, so the byte comparison below covers replayed reports.
	if got, want := coldReg.Counter("sweep_cells_replayed").Value(), uint64(len(cells)-len(sp.Workloads)); got != want {
		t.Errorf("cold sweep_cells_replayed = %d, want %d", got, want)
	}
	if got := cache.Stats.Misses.Value(); got != uint64(len(cells)) {
		t.Errorf("cold cache misses = %d, want %d", got, len(cells))
	}
	if got := cache.Stats.Hits.Value() + cache.Stats.DiskHits.Value(); got != 0 {
		t.Errorf("cold cache hits = %d, want 0", got)
	}

	// Differential: each cell's report must match a standalone
	// RunWorkload of the identical config, byte for byte.
	for i, c := range cells {
		cellJSON, err := repro.CanonicalReportJSON(cold.Cells[i].Report)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		standalone, err := repro.RunWorkload(ctx, c.Workload, c.Config)
		if err != nil {
			t.Fatalf("%s standalone: %v", c.ID(), err)
		}
		wantJSON, err := repro.CanonicalReportJSON(standalone)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		if !bytes.Equal(cellJSON, wantJSON) {
			t.Errorf("%s: sweep cell report diverges from standalone run\n%s",
				c.ID(), firstDiff(wantJSON, cellJSON))
		}
	}

	// Warm pass at parallel=1: zero new simulations, identical bytes.
	warmReg := obs.NewRegistry()
	eng = &sweep.Engine{Run: runner.RunWorkload, Parallel: 1, Metrics: warmReg}
	warm, err := eng.Execute(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats.Misses.Value(); got != uint64(len(cells)) {
		t.Errorf("warm re-run simulated: cache misses rose to %d", got)
	}
	if got := cache.Stats.Hits.Value() + cache.Stats.DiskHits.Value(); got != uint64(len(cells)) {
		t.Errorf("warm cache hits = %d, want %d", got, len(cells))
	}
	if got := warmReg.Counter("sweep_cells_ok").Value(); got != uint64(len(cells)) {
		t.Errorf("warm sweep_cells_ok = %d, want %d", got, len(cells))
	}
	if got := warmReg.Counter("sweep_cells_replayed").Value(); got != 0 {
		t.Errorf("warm sweep_cells_replayed = %d, want 0 (every cell is a cache hit)", got)
	}
	coldCSV, warmCSV := cold.CSV(), warm.CSV()
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV differs from cold CSV\n%s", firstDiff(coldCSV, warmCSV))
	}
	coldJS, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJS, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJS, warmJS) {
		t.Errorf("warm JSON differs from cold JSON\n%s", firstDiff(coldJS, warmJS))
	}
}

// TestSweepLeaderCutShortPublishesNothing gives the first cell to run,
// which leads its group, an already-expired timeout: that cell fails,
// its truncated run publishes no census verdicts and its group leaves
// the registry, so the group's next cell leads anew with the full
// pipeline and the last two replay it. Every sibling still matches a
// standalone run byte for byte. The other workload's group replays as
// usual.
func TestSweepLeaderCutShortPublishesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	ctx := context.Background()
	sp := &sweep.Spec{
		Entries:   []int{64, 256},
		Assoc:     []int{1},
		Policies:  []string{"lru", "fifo"},
		Workloads: []string{"lzw", "scrip"},
		Skip:      1_000,
		Measure:   20_000,
	}
	cells, err := sweep.Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Bool
	run := func(ctx context.Context, workload string, cfg repro.Config) (*repro.Report, error) {
		if first.CompareAndSwap(false, true) {
			cfg.Timeout = time.Nanosecond
		}
		return repro.RunWorkload(ctx, workload, cfg)
	}
	reg := obs.NewRegistry()
	eng := &sweep.Engine{Run: run, Parallel: 1, Metrics: reg}
	res, err := eng.Execute(ctx, sp)
	if err == nil {
		t.Fatal("the cut-short leader's cell did not fail the sweep")
	}
	if c := res.Cells[0]; c.OK() || c.Workload != "lzw" {
		t.Fatalf("cell 0 (%s) ok=%v, want the failed lzw leader", c.Workload, c.OK())
	}
	// scrip's three siblings replay, and two of lzw's: the first of
	// lzw's three to run after the failed leader leads.
	if got := reg.Counter("sweep_cells_replayed").Value(); got != 5 {
		t.Errorf("sweep_cells_replayed = %d, want 5", got)
	}
	for i, c := range cells[1:] {
		got := res.Cells[i+1]
		if !got.OK() {
			t.Fatalf("%s failed: %s", c.ID(), got.Error)
		}
		want, err := repro.RunWorkload(ctx, c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := repro.CanonicalReportJSON(got.Report)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := repro.CanonicalReportJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: sweep cell report diverges from standalone run\n%s",
				c.ID(), firstDiff(wantJSON, gotJSON))
		}
	}
}

// goldenSweepSpec is the pinned corpus grid: buffer sizes spanning the
// paper's 1K–64K sweep endpoints around the standard 8K point, both a
// direct-mapped and the paper's 4-way geometry, and the two policies
// whose curves differ (FIFO collapses onto LRU at assoc 1).
func goldenSweepSpec() *sweep.Spec {
	return &sweep.Spec{
		Entries:  []int{1024, 8192, 65536},
		Assoc:    []int{1, 4},
		Policies: []string{"lru", "random"},
		Skip:     10_000,
		Measure:  50_000,
	}
}

func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	reg := obs.NewRegistry()
	eng := &sweep.Engine{Run: repro.RunWorkload, Metrics: reg}
	res, err := eng.Execute(context.Background(), goldenSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	// One cell per workload leads its group; the other 88 of the 96
	// replay its census verdicts, and the artifacts below pin them.
	if got := reg.Counter("sweep_cells_replayed").Value(); got != 88 {
		t.Errorf("sweep_cells_replayed = %d, want 88 of %d", got, len(res.Cells))
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	artifacts := map[string][]byte{
		"sweep.csv":  res.CSV(),
		"sweep.json": js,
	}
	dir := filepath.Join("testdata", "golden", "sweep")
	for name, got := range artifacts {
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: wrote %d bytes", name, len(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden artifact (regenerate with -update): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sweep artifact diverged from golden corpus\n%s",
				name, firstDiff(want, got))
		}
	}
}
