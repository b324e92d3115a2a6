package obs

import (
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
		RetireRateMIPS:   4.17,
		ExecPath:         ExecTranslated,
		BlocksTranslated: 1_234,
		FallbackSteps:    2,
		ObserverHelper:   []string{"local", "reuse"},
		HelperWaits:      3,
		HelperWaitNS:     1_500_000,
		Observers: []ObserverCost{
			{Name: "repetition", EstimatedNS: 400_000_000, SharePct: 40},
			{Name: "taint", EstimatedNS: 600_000_000, SharePct: 60},
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
		"  observer helper        local, reuse (3 waits, 1.5ms)",
		"  loads                  1,000,000",
		"  stores                 250,000",
		"  branches               800,000 (600,000 taken)",
		"  syscalls               12",
		"  class mix              alu 59.0%, load 20.0%, branch 16.0%, store 5.0%",
		"observers (CPU time per pass):",
		"  repetition    40.0%  400ms",
		"  taint         60.0%  600ms",
		"",
	}, "\n")
	if got := m.FormatText(); got != want {
		t.Errorf("FormatText mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	m.ObserverHelper, m.HelperWaits, m.HelperWaitNS = nil, 0, 0
	inline := "  observer helper        none (all passes inline)\n"
	if got := m.FormatText(); !strings.Contains(got, inline) {
		t.Errorf("inline run renders without %q:\n%s", inline, got)
	}
}

// TestRunMetricsReplayGolden pins the -metrics text rendering of a
// sweep cell that replayed a sibling's census verdicts: exec path
// "replay", a "replay" phase where a full run has "measure", and no
// observer passes.
func TestRunMetricsReplayGolden(t *testing.T) {
	m := &RunMetrics{
		Benchmark: "lzw",
		Phases: PhaseTiming{
			Name: "run", WallNS: 4_000_000, Wall: "4ms",
			Children: []PhaseTiming{
				{Name: "compile", WallNS: 10_000, Wall: "10µs"},
				{Name: "load", WallNS: 90_000, Wall: "90µs"},
				{Name: "skip", WallNS: 400_000, Wall: "400µs"},
				{Name: "replay", WallNS: 3_000_000, Wall: "3ms"},
				{Name: "collect", WallNS: 500_000, Wall: "500µs"},
			},
		},
		Sim:              SimCounters{Retired: 60_000, Loads: 15_000, Stores: 5_000, Branches: 9_000, BranchesTaken: 6_000},
		RetireRateMIPS:   16.67,
		ExecPath:         ExecReplay,
		BlocksTranslated: 321,
	}
	want := strings.Join([]string{
		"run metrics: lzw",
		"phases:",
		"  run                    4ms",
		"    compile              10µs",
		"    load                 90µs",
		"    skip                 400µs",
		"    replay               3ms",
		"    collect              500µs",
		"simulator:",
		"  instructions retired   60,000",
		"  retire rate            16.67 MIPS",
		"  exec path              replay (321 blocks translated, 0 fallback steps)",
		"  observer helper        none (a replay runs only its reuse buffer)",
		"  loads                  15,000",
		"  stores                 5,000",
		"  branches               9,000 (6,000 taken)",
		"  syscalls               0",
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

func TestGaugeSnapshots(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inflight").Set(3)
	r.Gauge("active").Set(1)

	gs := r.GaugeValues()
	if len(gs) != 2 || gs[0].Name != "active" || gs[0].Value != 1 || gs[1].Name != "inflight" || gs[1].Value != 3 {
		t.Errorf("gauge snapshot = %+v", gs)
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
