package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeRun fabricates a deterministic report from the cell config, so
// engine tests exercise expansion, merging, and rendering without
// simulating. Hit rate is a made-up pure function of the axes.
func fakeRun(_ context.Context, workload string, cfg core.Config) (*core.Report, error) {
	return &core.Report{
		Benchmark:            workload,
		MeasuredInstructions: cfg.MeasureInstructions,
		DynTotal:             cfg.MeasureInstructions,
		ReusePctAll:          float64(cfg.ReuseEntries%97) + float64(cfg.ReuseAssoc) + float64(cfg.ReusePolicy)/10,
		ReusePctRepeated:     float64(cfg.ReuseEntries % 89),
	}, nil
}

func testSpec() *Spec {
	return &Spec{
		Entries:   []int{64, 256, 1024},
		Assoc:     []int{1, 4},
		Policies:  []string{"lru", "fifo", "random"},
		Workloads: []string{"lzw", "scrip", "odb"},
		Skip:      10,
		Measure:   1000,
	}
}

func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	var artifacts [][]byte
	for _, parallel := range []int{1, 4, 16} {
		reg := obs.NewRegistry()
		e := &Engine{Run: fakeRun, Parallel: parallel, Metrics: reg}
		res, err := e.Execute(context.Background(), testSpec())
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if got, want := len(res.Cells), 3*2*3*3; got != want {
			t.Fatalf("parallel=%d: %d cells, want %d", parallel, got, want)
		}
		if got, want := len(res.Aggregate), 3*2*3; got != want {
			t.Fatalf("parallel=%d: %d aggregate rows, want %d", parallel, got, want)
		}
		csv := res.CSV()
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, append(csv, js...))
		if v := reg.Counter("sweep_cells_ok").Value(); v != uint64(len(res.Cells)) {
			t.Errorf("parallel=%d: sweep_cells_ok = %d, want %d", parallel, v, len(res.Cells))
		}
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Errorf("artifact %d differs from artifact 0 under different parallelism", i)
		}
	}
}

func TestEngineBoundsParallelism(t *testing.T) {
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return fakeRun(ctx, workload, cfg)
	}
	e := &Engine{Run: run, Parallel: 2, Metrics: obs.NewRegistry()}
	if _, err := e.Execute(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak in-flight cells %d, want <= 2", p)
	}
}

func TestEngineFailSoft(t *testing.T) {
	boom := errors.New("injected cell failure")
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		if workload == "scrip" && cfg.ReuseEntries == 256 {
			return nil, boom
		}
		return fakeRun(ctx, workload, cfg)
	}
	reg := obs.NewRegistry()
	e := &Engine{Run: run, Metrics: reg}
	res, err := e.Execute(context.Background(), testSpec())
	if err == nil {
		t.Fatal("want joined failure error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("joined error does not wrap the cell failure: %v", err)
	}
	var failed, ok int
	for i := range res.Cells {
		if res.Cells[i].OK() {
			ok++
		} else {
			failed++
			if !strings.Contains(res.Cells[i].Error, "injected cell failure") {
				t.Errorf("cell error text %q", res.Cells[i].Error)
			}
		}
	}
	// entries=256 × 2 assoc × 3 policies × workload scrip = 6 failures.
	if failed != 6 || ok != len(res.Cells)-6 {
		t.Errorf("failed=%d ok=%d of %d", failed, ok, len(res.Cells))
	}
	if v := reg.Counter("sweep_cells_failed").Value(); v != 6 {
		t.Errorf("sweep_cells_failed = %d, want 6", v)
	}
	// Aggregates over the failed point still average the survivors.
	for _, a := range res.Aggregate {
		want := 3
		if a.Entries == 256 {
			want = 2
		}
		if a.Workloads != want {
			t.Errorf("aggregate e%d-a%d-%s: %d contributing workloads, want %d",
				a.Entries, a.Assoc, a.Policy, a.Workloads, want)
		}
	}
	// The CSV still renders every row, failures carrying error text.
	csv := string(res.CSV())
	if got := strings.Count(csv, "\n"); got != 1+len(res.Cells)+len(res.Aggregate) {
		t.Errorf("CSV has %d lines", got)
	}
	if !strings.Contains(csv, "injected cell failure") {
		t.Error("CSV lost the failure diagnostic")
	}
}

func TestEngineTruncatedReportIsFailure(t *testing.T) {
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		r, _ := fakeRun(ctx, workload, cfg)
		if workload == "lzw" {
			r.Truncated = true
			r.TruncatedReason = "timeout"
		}
		return r, nil
	}
	e := &Engine{Run: run, Metrics: obs.NewRegistry()}
	res, err := e.Execute(context.Background(), &Spec{Workloads: []string{"lzw", "scrip"}, Measure: 10})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated cell not demoted to failure: %v", err)
	}
	if res.Cells[0].OK() || !res.Cells[1].OK() {
		t.Errorf("unexpected cell outcomes: %+v", res.Cells)
	}
}

func TestEngineProgressAndSpanPerCell(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	e := &Engine{
		Run:     fakeRun,
		Metrics: obs.NewRegistry(),
		Progress: func(p Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	tr := obs.NewTrace("sweep-test")
	ctx := obs.WithTrace(context.Background(), tr)
	sp := testSpec()
	if _, err := e.Execute(ctx, sp); err != nil {
		t.Fatal(err)
	}
	cells, _ := Expand(sp)
	if len(events) != len(cells) {
		t.Fatalf("%d progress events, want %d", len(events), len(cells))
	}
	seenDone := make(map[int]bool)
	for _, p := range events {
		if p.Total != len(cells) {
			t.Errorf("Total = %d", p.Total)
		}
		if seenDone[p.Done] {
			t.Errorf("Done value %d repeated", p.Done)
		}
		seenDone[p.Done] = true
	}
	// One sweep.cell span per cell hangs off the trace root.
	var cellSpans int
	for _, child := range tr.Root().Tree().Children {
		if child.Name == "sweep.cell" {
			cellSpans++
		}
	}
	if cellSpans != len(cells) {
		t.Errorf("%d sweep.cell spans, want %d", cellSpans, len(cells))
	}
}

func TestEngineInvalidSpec(t *testing.T) {
	e := &Engine{Run: fakeRun, Metrics: obs.NewRegistry()}
	if res, err := e.Execute(context.Background(), &Spec{Entries: []int{0}}); err == nil || res != nil {
		t.Fatalf("invalid spec: res=%v err=%v", res, err)
	}
}

func TestCSVQuoting(t *testing.T) {
	r := &Result{Cells: []CellResult{{
		Workload: "lzw", Entries: 8, Assoc: 1, Policy: "lru",
		Error: `boom, "quoted"` + "\nline",
	}}}
	csv := string(r.CSV())
	if !strings.Contains(csv, `"boom, ""quoted""`+"\nline\"") {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
}

func TestShapeCannotChangeMeasurement(t *testing.T) {
	// A RunFunc that wraps the runner may adjust execution fields (as
	// instrep sweep sets timeout and watchdog); the artifact's
	// ConfigKey must reflect the measurement config that actually ran,
	// so shaping a timeout must not alter it.
	var keys []string
	inner := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		keys = append(keys, cfg.MeasurementKey())
		return fakeRun(ctx, workload, cfg)
	}
	e := &Engine{
		Run: func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
			cfg.Timeout, cfg.Parallel = 1e9, 7
			return inner(ctx, workload, cfg)
		},
		Parallel: 1,
		Metrics:  obs.NewRegistry(),
	}
	sp := &Spec{Workloads: []string{"lzw"}, Measure: 10}
	res, err := e.Execute(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != res.Cells[0].ConfigKey {
		t.Errorf("measurement key drifted: ran %v, artifact %q", keys, res.Cells[0].ConfigKey)
	}
}

// TestEnginePanicIsolation runs a grid whose RunFunc panics on one
// cell: that cell fails alone with a *core.PanicError, counted in the
// registry's health set, and every other cell completes.
func TestEnginePanicIsolation(t *testing.T) {
	run := func(ctx context.Context, workload string, cfg core.Config) (*core.Report, error) {
		if workload == "odb" && cfg.ReuseEntries == 1024 && cfg.ReuseAssoc == 4 && cfg.ReusePolicy.String() == "fifo" {
			panic("injected cell panic")
		}
		return fakeRun(ctx, workload, cfg)
	}
	reg := obs.NewRegistry()
	var progress atomic.Int64
	e := &Engine{Run: run, Parallel: 3, Metrics: reg, Progress: func(Progress) { progress.Add(1) }}
	res, err := e.Execute(context.Background(), testSpec())
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Benchmark != "odb" {
		t.Fatalf("err = %v, want odb's *core.PanicError", err)
	}
	var failed []CellResult
	for _, c := range res.Cells {
		if !c.OK() {
			failed = append(failed, c)
		}
	}
	if len(failed) != 1 || failed[0].Workload != "odb" || !strings.Contains(failed[0].Error, "injected cell panic") {
		t.Fatalf("failed cells = %+v, want only the panicking odb cell naming the panic", failed)
	}
	if v := reg.Counter("sweep_cells_ok").Value(); v != uint64(len(res.Cells)-1) {
		t.Errorf("sweep_cells_ok = %d, want %d", v, len(res.Cells)-1)
	}
	if v := reg.Health().PanicsRecovered.Value(); v != 1 {
		t.Errorf("panics_recovered = %d, want 1", v)
	}
	if n := progress.Load(); n != int64(len(res.Cells)) {
		t.Errorf("%d progress events, want one per cell (%d)", n, len(res.Cells))
	}
}

func BenchmarkExpand(b *testing.B) {
	s := testSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Expand(s); err != nil {
			b.Fatal(err)
		}
	}
}
