package repro_test

// Pipeline-level differential: the block-translated and single-step
// interpreted executions must produce byte-identical canonical reports
// for every workload — the same invariant the golden corpus pins, but
// checked directly against each other so it holds even when the corpus
// is being regenerated. Arming the watchdog must change neither the
// bytes nor the execution path, and neither must running observer
// passes on the helper goroutine. The machine-level differential (event
// streams, faults, final state) lives in internal/cpu/translate_test.go.

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
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
		checkGolden(t, r)
	}
}

// spareCPU raises GOMAXPROCS, for the rest of the test, until a run
// started now can claim a second CPU for its observer helper.
func spareCPU(t *testing.T) {
	t.Helper()
	if n := core.ClaimedCPUs() + 2; runtime.GOMAXPROCS(0) < n {
		old := runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// holdOffHelper claims every CPU until release is called, so runs keep
// all their observer passes inline.
func holdOffHelper() (release func()) {
	claims := make([]func(), runtime.GOMAXPROCS(0))
	for i := range claims {
		claims[i] = core.ClaimCPU()
	}
	return func() {
		for _, release := range claims {
			release()
		}
	}
}

// checkGolden byte-compares a report against the golden corpus.
func checkGolden(t *testing.T, r *repro.Report) {
	t.Helper()
	got, err := repro.CanonicalReportJSON(r)
	if err != nil {
		t.Fatalf("%s: %v", r.Benchmark, err)
	}
	want, err := os.ReadFile(goldenPath(r.Benchmark))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: report diverged from the golden corpus\n%s", r.Benchmark, firstDiff(want, got))
	}
}

// TestDifferentialObserverHelper runs every workload, one at a time,
// with the observer helper armed and with every CPU claimed so that it
// is held off: both match the golden corpus, and only the armed runs
// name the passes their helper ran.
func TestDifferentialObserverHelper(t *testing.T) {
	for _, armed := range []bool{true, false} {
		name := map[bool]string{true: "armed", false: "held_off"}[armed]
		t.Run(name, func(t *testing.T) {
			if armed {
				spareCPU(t)
			} else {
				defer holdOffHelper()()
			}
			cfg := repro.QuickConfig()
			cfg.Parallel = 1
			reports, err := repro.RunAll(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if got := len(r.Metrics.ObserverHelper) > 0; got != armed {
					t.Errorf("%s: observer_helper %v, want armed=%v", r.Benchmark, r.Metrics.ObserverHelper, armed)
				}
				checkGolden(t, r)
			}
		})
	}
}

// TestDifferentialHelperResume interrupts every workload at its first
// measure-phase snapshot and resumes it in a fresh run, both with the
// helper armed: the resumed report matches the golden corpus.
func TestDifferentialHelperResume(t *testing.T) {
	spareCPU(t)
	for _, w := range repro.Workloads() {
		r := interruptThenResume(t, w, repro.QuickConfig())
		if len(r.Metrics.ObserverHelper) == 0 {
			t.Errorf("%s: resumed run did not arm its helper", w)
		}
		checkGolden(t, r)
	}
}

// TestDifferentialHelperGivesUpCPU claims every CPU at the first chunk
// boundary of each workload's measure window: the run gives its helper
// up at the next hand-off, finishes inline, and still matches the
// golden corpus.
func TestDifferentialHelperGivesUpCPU(t *testing.T) {
	spareCPU(t)
	cpus := core.ClaimedCPUs()
	for _, w := range repro.Workloads() {
		var release func()
		cfg := repro.QuickConfig()
		cfg.Progress = func(p repro.Progress) {
			if p.Phase == "measure" && p.Done > 0 && !p.Final && release == nil {
				release = holdOffHelper()
			}
		}
		r, err := repro.RunWorkload(context.Background(), w, cfg)
		if release == nil {
			t.Fatalf("%s: no measure-phase progress before the window ended", w)
		}
		release()
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(r.Metrics.ObserverHelper) == 0 {
			t.Errorf("%s: run never armed its helper", w)
		}
		checkGolden(t, r)
	}
	if n := core.ClaimedCPUs(); n != cpus {
		t.Errorf("%d CPUs claimed after the runs, want %d", n, cpus)
	}
}
