package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("insts")
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("insts").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name returned different counters")
	}
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	vals := r.CounterValues()
	if len(vals) != 2 || vals[0].Name != "a" || vals[0].Value != 1 || vals[1].Name != "b" || vals[1].Value != 2 {
		t.Errorf("snapshot = %+v", vals)
	}
}

func TestTimerPercentiles(t *testing.T) {
	var tm Timer
	// 1..100 ms in shuffled-ish order (deterministic permutation).
	for i := 0; i < 100; i++ {
		d := time.Duration((i*37)%100+1) * time.Millisecond
		tm.Observe(d)
	}
	s := tm.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 5050 * time.Millisecond; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	if want := 50500 * time.Microsecond; s.Mean != want {
		t.Errorf("mean = %v, want %v", s.Mean, want)
	}
	if s.P50 != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", s.P95)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", s.Max)
	}
}

func TestTimerDecimation(t *testing.T) {
	var tm Timer
	const n = 3 * maxTimerSamples
	for i := 0; i < n; i++ {
		tm.Observe(time.Duration(i+1) * time.Microsecond)
	}
	s := tm.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Max != n*time.Microsecond {
		t.Errorf("max = %v, want %v", s.Max, n*time.Microsecond)
	}
	// Percentiles stay representative under decimation: p50 of a
	// uniform ramp should be near the midpoint.
	mid := float64(n) / 2
	if got := float64(s.P50.Microseconds()); got < mid*0.8 || got > mid*1.2 {
		t.Errorf("p50 = %v, want within 20%% of %vus", s.P50, mid)
	}
	if len(tm.samples) > maxTimerSamples {
		t.Errorf("retained %d samples, cap %d", len(tm.samples), maxTimerSamples)
	}
}

func TestTimerConcurrent(t *testing.T) {
	var tm Timer
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tm.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := tm.Snapshot(); s.Count != 4000 {
		t.Errorf("count = %d, want 4000", s.Count)
	}
}

func TestSpanNesting(t *testing.T) {
	root := StartSpan("run")
	a := root.StartChild("compile")
	a.End()
	b := root.StartChild("measure")
	b.StartChild("inner").End()
	b.End()
	root.End()

	tree := root.Tree()
	if tree.Name != "run" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v", tree)
	}
	if tree.Children[0].Name != "compile" || tree.Children[1].Name != "measure" {
		t.Errorf("children = %q, %q", tree.Children[0].Name, tree.Children[1].Name)
	}
	if len(tree.Children[1].Children) != 1 || tree.Children[1].Children[0].Name != "inner" {
		t.Errorf("nested child missing: %+v", tree.Children[1])
	}
	if tree.WallNS < tree.Children[0].WallNS {
		t.Errorf("root wall %d < child wall %d", tree.WallNS, tree.Children[0].WallNS)
	}
	// End is idempotent: a second End must not change the duration.
	d1 := root.End()
	time.Sleep(time.Millisecond)
	if d2 := root.End(); d2 != d1 {
		t.Errorf("second End changed duration: %v != %v", d2, d1)
	}
}

func TestSpanTime(t *testing.T) {
	root := StartSpan("run")
	ran := false
	root.Time("step", func() { ran = true })
	root.End()
	if !ran {
		t.Fatal("fn not run")
	}
	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "step" {
		t.Errorf("tree = %+v", tree)
	}
}

// TestRunMetricsGolden pins the -metrics text rendering for a fixed
// document.
func TestRunMetricsGolden(t *testing.T) {
	m := &RunMetrics{
		Benchmark: "goban",
		Phases: PhaseTiming{
			Name: "run", WallNS: 1_500_000_000, Wall: "1.5s",
			Children: []PhaseTiming{
				{Name: "compile", WallNS: 200_000_000, Wall: "200ms"},
				{Name: "measure", WallNS: 1_200_000_000, Wall: "1.2s",
					Children: []PhaseTiming{{Name: "inner", WallNS: 100_000_000, Wall: "100ms"}}},
			},
		},
		Sim: SimCounters{
			Retired:       5_000_000,
			Loads:         1_000_000,
			Stores:        250_000,
			Branches:      800_000,
			BranchesTaken: 600_000,
			Syscalls:      12,
			ClassMix: []ClassCount{
				{Class: "alu", Count: 2_950_000},
				{Class: "load", Count: 1_000_000},
				{Class: "branch", Count: 800_000},
				{Class: "store", Count: 250_000},
			},
		},
		RetireRateMIPS:      4.17,
		ExecPath:            ExecTranslated,
		BlocksTranslated:    1_234,
		FallbackSteps:       2,
		ObserverSampleEvery: 64,
		Observers: []ObserverCost{
			{Name: "repetition", Samples: 78125, SampledNS: 6_250_000, EstimatedNS: 400_000_000, SharePct: 40},
			{Name: "taint", Samples: 78125, SampledNS: 9_375_000, EstimatedNS: 600_000_000, SharePct: 60},
		},
	}
	want := strings.Join([]string{
		"run metrics: goban",
		"phases:",
		"  run                    1.5s",
		"    compile              200ms",
		"    measure              1.2s",
		"      inner              100ms",
		"simulator:",
		"  instructions retired   5,000,000",
		"  retire rate            4.17 MIPS",
		"  exec path              translated (1,234 blocks translated, 2 fallback steps)",
		"  loads                  1,000,000",
		"  stores                 250,000",
		"  branches               800,000 (600,000 taken)",
		"  syscalls               12",
		"  class mix              alu 59.0%, load 20.0%, branch 16.0%, store 5.0%",
		"observers (sampled 1/64, estimated):",
		"  repetition    40.0%  400ms",
		"  taint         60.0%  600ms",
		"",
	}, "\n")
	if got := m.FormatText(); got != want {
		t.Errorf("FormatText mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.5s"},
		{200 * time.Millisecond, "200ms"},
		{1234567 * time.Nanosecond, "1.235ms"},
		{500 * time.Nanosecond, "500ns"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 1, 2, 15, 4, 5, 0, time.UTC) }
	l.Debug("hidden")
	l.Info("compile done", "bench", "goban", "insts", 42)
	l.With("phase", "measure").Warn("slow observer", "name", "taint two")
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if want := "15:04:05.000 INFO  compile done bench=goban insts=42"; lines[0] != want {
		t.Errorf("line = %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], "WARN") || !strings.Contains(lines[1], "phase=measure") ||
		!strings.Contains(lines[1], `name="taint two"`) {
		t.Errorf("warn line = %q", lines[1])
	}
}

func TestLoggerNil(t *testing.T) {
	var l *Logger
	// Must not panic.
	l.Info("ignored")
	l.With("k", "v").Error("ignored")
	if l.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestGaugeAndTimerSnapshots(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inflight").Set(3)
	r.Gauge("active").Set(1)
	r.Timer("lat.b").Observe(2 * time.Millisecond)
	r.Timer("lat.a").Observe(5 * time.Millisecond)
	r.Timer("lat.a").Observe(7 * time.Millisecond)

	gs := r.GaugeValues()
	if len(gs) != 2 || gs[0].Name != "active" || gs[0].Value != 1 || gs[1].Name != "inflight" || gs[1].Value != 3 {
		t.Errorf("gauge snapshot = %+v", gs)
	}
	ts := r.TimerValues()
	if len(ts) != 2 || ts[0].Name != "lat.a" || ts[1].Name != "lat.b" {
		t.Fatalf("timer snapshot order = %+v", ts)
	}
	if ts[0].Count != 2 || ts[1].Count != 1 {
		t.Errorf("timer counts = %d, %d; want 2, 1", ts[0].Count, ts[1].Count)
	}
	if ts[0].Max < 7*time.Millisecond {
		t.Errorf("lat.a max = %v, want >= 7ms", ts[0].Max)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.Gauge("stored").Set(2)
	depth := int64(5)
	r.GaugeFunc("queue.depth", func() int64 { return depth })

	gs := r.GaugeValues()
	if len(gs) != 2 || gs[0].Name != "queue.depth" || gs[0].Value != 5 || gs[1].Name != "stored" {
		t.Fatalf("gauge snapshot = %+v", gs)
	}
	// Callback gauges are live: the next snapshot re-evaluates.
	depth = 9
	if gs := r.GaugeValues(); gs[0].Value != 9 {
		t.Errorf("callback gauge stale: %+v", gs)
	}
	// Re-registering replaces the callback.
	r.GaugeFunc("queue.depth", func() int64 { return -1 })
	if gs := r.GaugeValues(); gs[0].Value != -1 {
		t.Errorf("re-registration ignored: %+v", gs)
	}
}
