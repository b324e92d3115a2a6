package repro_test

// Pipeline-level differential: the block-translated and single-step
// interpreted executions must produce byte-identical canonical reports
// for every workload — the same invariant the golden corpus pins, but
// checked directly against each other so it holds even when the corpus
// is being regenerated. Arming the watchdog must change neither the
// bytes nor the execution path. The machine-level differential (event
// streams, faults, final state) lives in internal/cpu/translate_test.go.

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

func TestDifferentialReports(t *testing.T) {
	ctx := context.Background()
	translated, err := repro.RunAll(ctx, repro.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	interpCfg := repro.QuickConfig()
	interpCfg.DisableTranslation = true
	interpreted, err := repro.RunAll(ctx, interpCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(translated) != len(interpreted) {
		t.Fatalf("report count: translated %d, interpreted %d", len(translated), len(interpreted))
	}
	for i, tr := range translated {
		in := interpreted[i]
		if tr.Benchmark != in.Benchmark {
			t.Fatalf("report order diverged: %s vs %s", tr.Benchmark, in.Benchmark)
		}
		got, err := repro.CanonicalReportJSON(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Benchmark, err)
		}
		want, err := repro.CanonicalReportJSON(in)
		if err != nil {
			t.Fatalf("%s: %v", in.Benchmark, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: translated report diverged from interpreted\n%s",
				tr.Benchmark, firstDiff(want, got))
		}
	}
}

// TestDifferentialWatchdogArmed runs every workload with the watchdog
// armed, as serve jobs run: the reports must match the golden corpus
// byte for byte, and the run must have stayed on the translated path.
func TestDifferentialWatchdogArmed(t *testing.T) {
	cfg := repro.QuickConfig()
	cfg.WatchdogInterval = 30 * time.Second
	reports, err := repro.RunAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(repro.Workloads()); len(reports) != want {
		t.Fatalf("got %d reports, want %d", len(reports), want)
	}
	for _, r := range reports {
		if m := r.Metrics; m == nil {
			t.Errorf("%s: no run metrics", r.Benchmark)
		} else if m.ExecPath != obs.ExecTranslated || m.BlocksTranslated == 0 {
			t.Errorf("%s: armed run exec path %q with %d blocks translated, want translated with blocks",
				r.Benchmark, m.ExecPath, m.BlocksTranslated)
		}
		got, err := repro.CanonicalReportJSON(r)
		if err != nil {
			t.Fatalf("%s: %v", r.Benchmark, err)
		}
		want, err := os.ReadFile(goldenPath(r.Benchmark))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: armed report diverged from the golden corpus\n%s", r.Benchmark, firstDiff(want, got))
		}
	}
}
