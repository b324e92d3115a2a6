package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/workloads"
)

func TestRunSmallProgram(t *testing.T) {
	im, err := minic.Compile(`
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int lookup(int i) { return table[i & 15]; }
int main() {
	int sum;
	int i;
	int round;
	sum = 0;
	for (round = 0; round < 50; round++) {
		for (i = 0; i < 16; i++) {
			sum += lookup(i);
		}
	}
	return sum;
}`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(context.Background(), im, nil, "test", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.ProgramExited {
		t.Error("program should have exited")
	}
	if r.ExitCode != 50*80 {
		t.Errorf("exit = %d, want %d", r.ExitCode, 50*80)
	}
	// The loop repeats identical work 50 times: repetition must be
	// high.
	if r.DynRepeatedPct < 80 {
		t.Errorf("repeated%% = %.1f, want > 80", r.DynRepeatedPct)
	}
	// All-argument repetition: lookup is called with the same 16
	// arguments every round.
	if r.Table4.AllArgsPct < 90 {
		t.Errorf("all-arg repetition = %.1f, want > 90", r.Table4.AllArgsPct)
	}
	if r.Table4.DynCalls == 0 || r.Table4.Funcs == 0 {
		t.Error("no calls observed")
	}
	// Static accounting.
	if r.StaticExecuted <= 0 || r.StaticExecuted > r.StaticTotal {
		t.Errorf("static executed %d of %d", r.StaticExecuted, r.StaticTotal)
	}
	// Coverage curves are monotone in [0, 100].
	prev := 0.0
	for i, v := range r.Fig1 {
		if v < prev-1e-9 || v > 100+1e-9 {
			t.Errorf("Fig1[%d] = %v not monotone in range", i, v)
		}
		prev = v
	}
	// Table 3 percentages sum to ~100.
	sum := 0.0
	for _, v := range r.Table3.OverallPct {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("Table3 overall sums to %v", sum)
	}
	// Tables 5 percentages sum to ~100.
	sum = 0
	for _, v := range r.Local.OverallPct {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("Table5 overall sums to %v", sum)
	}
	// Reuse buffer captures no more than the repetition census.
	if r.ReusePctAll > r.DynRepeatedPct+1e-9 {
		t.Errorf("reuse %% (%v) exceeds repetition %% (%v)", r.ReusePctAll, r.DynRepeatedPct)
	}
}

func TestRunWorkloadWindow(t *testing.T) {
	w, _ := workloads.ByName("m88k")
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{SkipInstructions: 200_000, MeasureInstructions: 500_000}
	r, err := core.Run(context.Background(), im, w.Input(1), w.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedInstructions != 200_000 {
		t.Errorf("skipped %d", r.SkippedInstructions)
	}
	if r.MeasuredInstructions != 500_000 {
		t.Errorf("measured %d", r.MeasuredInstructions)
	}
	if r.DynTotal != 500_000 {
		t.Errorf("tracker saw %d", r.DynTotal)
	}
	// m88k is the extreme repeater in the paper (98.8%).
	if r.DynRepeatedPct < 80 {
		t.Errorf("m88k repetition = %.1f, want > 80", r.DynRepeatedPct)
	}
	t.Logf("m88k: rep=%.1f%% internals=%.1f%% ext=%.1f%% allarg=%.1f%% reuse=%.1f%%",
		r.DynRepeatedPct, r.Table3.OverallPct[1], r.Table3.OverallPct[3],
		r.Table4.AllArgsPct, r.ReusePctAll)
}

func TestDisableFlags(t *testing.T) {
	im, err := minic.Compile(`int main() { int s; s = 0; for (int i = 0; i < 100; i++) { s += i; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		DisableTaint: true, DisableLocal: true,
		DisableFunc: true, DisableReuse: true, DisableVPred: true,
	}
	r, err := core.Run(context.Background(), im, nil, "min", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The census still runs; the disabled analyses report zeros.
	if r.DynRepeatedPct <= 0 {
		t.Error("census disabled unexpectedly")
	}
	if r.Table4.DynCalls != 0 {
		t.Error("funcanal ran while disabled")
	}
	if r.ReusePctAll != 0 {
		t.Error("reuse ran while disabled")
	}
	var sum float64
	for _, v := range r.Table3.OverallPct {
		sum += v
	}
	if sum != 0 {
		t.Error("taint ran while disabled")
	}
}

func TestWarmupDoesNotCount(t *testing.T) {
	im, err := minic.Compile(`int main() { int s; s = 0; for (int i = 0; i < 100000; i++) { s += i & 3; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(context.Background(), im, nil, "w", core.Config{
		SkipInstructions:    10_000,
		MeasureInstructions: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedInstructions != 10_000 || r.MeasuredInstructions != 20_000 {
		t.Fatalf("window = %d/%d", r.SkippedInstructions, r.MeasuredInstructions)
	}
	if r.DynTotal != 20_000 {
		t.Errorf("census counted %d, want exactly the measured window", r.DynTotal)
	}
}

func TestRunFaultSurfacing(t *testing.T) {
	im, err := minic.Compile(`int main() { int z; z = 0; return 1 / z; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(context.Background(), im, nil, "div0", core.Config{}); err == nil {
		t.Error("runtime fault should surface from core.Run")
	}
	// Fault during warmup is reported as such.
	if _, err := core.Run(context.Background(), im, nil, "div0", core.Config{SkipInstructions: 1_000_000}); err == nil {
		t.Error("warmup fault should surface")
	}
}

func TestVPredInReport(t *testing.T) {
	im, err := minic.Compile(`
int main() {
	int s;
	s = 0;
	for (int i = 0; i < 2000; i++) { s += 3; }
	return s & 127;
}`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(context.Background(), im, nil, "vp", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A counting loop is stride-predictable and its constant adds are
	// last-value predictable.
	if r.VPred.EligiblePct <= 0 {
		t.Fatal("no eligible instructions")
	}
	if r.VPred.HybridPct < r.VPred.LastValuePct || r.VPred.HybridPct < r.VPred.StridePct {
		t.Error("hybrid must dominate its components")
	}
	if r.VPred.StridePct < 30 {
		t.Errorf("stride accuracy %.1f suspiciously low for a counting loop", r.VPred.StridePct)
	}
	// Type census present: ALU dominates this loop.
	if r.TypeOverallPct[0] < 30 {
		t.Errorf("alu share = %.1f", r.TypeOverallPct[0])
	}
	var sum float64
	for _, v := range r.TypeOverallPct {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("type shares sum to %v", sum)
	}
}

func TestRunMetricsCollected(t *testing.T) {
	w, _ := workloads.ByName("lzw")
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	var updates []core.Progress
	cfg := core.Config{
		SkipInstructions:    10_000,
		MeasureInstructions: 100_000,
		Progress:            func(p core.Progress) { updates = append(updates, p) },
	}
	r, err := core.Run(context.Background(), im, w.Input(1), "lzw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	if m == nil {
		t.Fatal("no RunMetrics on report")
	}
	if m.Benchmark != "lzw" {
		t.Errorf("benchmark = %q", m.Benchmark)
	}
	// Phase tree: load/skip/measure/collect under the root.
	names := map[string]bool{}
	for _, c := range m.Phases.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"load", "skip", "measure", "collect"} {
		if !names[want] {
			t.Errorf("phase %q missing from %v", want, m.Phases.Children)
		}
	}
	if m.Phases.WallNS <= 0 {
		t.Error("root phase has no wall time")
	}
	if m.Sim.Retired != r.SkippedInstructions+r.MeasuredInstructions {
		t.Errorf("retired = %d, want %d", m.Sim.Retired, r.SkippedInstructions+r.MeasuredInstructions)
	}
	if m.Sim.Loads == 0 || m.Sim.Branches == 0 || len(m.Sim.ClassMix) == 0 {
		t.Errorf("sim counters empty: %+v", m.Sim)
	}
	var mixTotal uint64
	for _, c := range m.Sim.ClassMix {
		mixTotal += c.Count
	}
	if mixTotal != m.Sim.Retired {
		t.Errorf("class mix sums to %d, want %d", mixTotal, m.Sim.Retired)
	}
	if m.RetireRateMIPS <= 0 {
		t.Error("retire rate not computed")
	}
	if m.ExecPath != obs.ExecTranslated || m.BlocksTranslated == 0 || m.FallbackSteps != 0 {
		t.Errorf("exec path = %q (%d blocks, %d fallback steps), want translated with blocks",
			m.ExecPath, m.BlocksTranslated, m.FallbackSteps)
	}
	// Observer attribution: the census, then the six analyses, in
	// pipeline order.
	var observers []string
	var share float64
	for _, o := range m.Observers {
		if o.EstimatedNS <= 0 {
			t.Errorf("observer %s was never timed", o.Name)
		}
		observers = append(observers, o.Name)
		share += o.SharePct
	}
	if want := []string{"repetition", "taint", "local", "funcanal", "reuse", "vpred", "vprofile"}; !slices.Equal(observers, want) {
		t.Errorf("observer costs for %v, want %v", observers, want)
	}
	if share < 99.9 || share > 100.1 {
		t.Errorf("observer shares sum to %.2f", share)
	}
	// Progress: updates for both phases, each ending with a final one.
	byPhase := map[string][]core.Progress{}
	for _, u := range updates {
		byPhase[u.Phase] = append(byPhase[u.Phase], u)
	}
	for _, phase := range []string{"skip", "measure"} {
		us := byPhase[phase]
		if len(us) == 0 {
			t.Fatalf("no progress updates for %s", phase)
		}
		last := us[len(us)-1]
		if !last.Final {
			t.Errorf("%s: last update not final: %+v", phase, last)
		}
		if last.Done == 0 || last.Retired == 0 {
			t.Errorf("%s: empty final update: %+v", phase, last)
		}
	}
	if got := byPhase["measure"][len(byPhase["measure"])-1].Done; got != r.MeasuredInstructions {
		t.Errorf("final measure Done = %d, want %d", got, r.MeasuredInstructions)
	}
}

func TestRunMetricsInterpretedPath(t *testing.T) {
	w, _ := workloads.ByName("lzw")
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{MeasureInstructions: 50_000, DisableTranslation: true}
	r, err := core.Run(context.Background(), im, w.Input(1), "lzw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics; m.ExecPath != obs.ExecInterpreted || m.BlocksTranslated != 0 || m.FallbackSteps != 0 {
		t.Errorf("exec path = %q (%d blocks, %d fallback steps), want interpreted with no translation",
			m.ExecPath, m.BlocksTranslated, m.FallbackSteps)
	}
}

// TestConfigValidateEdges pins the bounds of every field Validate
// checks, on each side of each edge. Only Validate runs here: no
// buffer is built, so the large sizes allocate nothing.
func TestConfigValidateEdges(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		field string // "" = valid
	}{
		{"zero", core.Config{}, ""},
		{"entries 1", core.Config{ReuseEntries: 1}, ""},
		{"entries max", core.Config{ReuseEntries: core.MaxReuseEntries}, ""},
		{"entries max+1", core.Config{ReuseEntries: core.MaxReuseEntries + 1}, "ReuseEntries"},
		{"entries -1", core.Config{ReuseEntries: -1}, "ReuseEntries"},
		{"assoc 1", core.Config{ReuseAssoc: 1}, ""},
		{"assoc max", core.Config{ReuseAssoc: core.MaxReuseAssoc}, ""},
		{"assoc max+1", core.Config{ReuseAssoc: core.MaxReuseAssoc + 1}, "ReuseAssoc"},
		{"assoc 1e9", core.Config{ReuseAssoc: 1_000_000_000}, "ReuseAssoc"},
		{"assoc -1", core.Config{ReuseAssoc: -1}, "ReuseAssoc"},
		{"instances -1", core.Config{MaxInstances: -1}, "MaxInstances"},
		{"instances large", core.Config{MaxInstances: 1 << 30}, ""},
		{"vpred -1", core.Config{VPredEntries: -1}, "VPredEntries"},
		{"vpred large", core.Config{VPredEntries: 1 << 30}, ""},
		{"variant -1", core.Config{InputVariant: -1}, "InputVariant"},
		{"variant 2", core.Config{InputVariant: 2}, ""},
		{"policy random", core.Config{ReusePolicy: reuse.Random}, ""},
		{"policy 99", core.Config{ReusePolicy: reuse.Policy(99)}, "ReusePolicy"},
	} {
		err := tc.cfg.Validate()
		var ce *core.ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		case tc.field != "" && !errors.As(err, &ce):
			t.Errorf("%s: Validate = %v, want a *ConfigError", tc.name, err)
		case tc.field != "" && ce.Field != tc.field:
			t.Errorf("%s: error names %s, want %s (%v)", tc.name, ce.Field, tc.field, err)
		}
	}
}

// TestRunRejectsInvalidConfig: a geometry the reuse buffer cannot
// build returns the typed error and no report, before any panic.
func TestRunRejectsInvalidConfig(t *testing.T) {
	im, err := minic.Compile(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(context.Background(), im, nil, "bad", core.Config{ReuseAssoc: -1})
	var ce *core.ConfigError
	if !errors.As(err, &ce) || ce.Field != "ReuseAssoc" {
		t.Fatalf("Run err = %v, want a ReuseAssoc *ConfigError", err)
	}
	if rep != nil {
		t.Errorf("Run returned a report with a rejected config: %+v", rep)
	}
}
