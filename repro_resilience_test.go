package repro_test

// Acceptance tests for the fault-tolerant run path at the public API:
// a panicking workload and a stalled workload fail alone, the healthy
// workloads' tables are byte-identical to an uninjected run, and runs
// cut short surface well-formed partial reports.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/reportserver"
	"repro/internal/resultcache"
)

// resilienceWindow is small enough to run the full workload set twice
// in a test, large enough that the injected fault points land inside
// the measure window.
func resilienceWindow() repro.Config {
	return repro.Config{SkipInstructions: 20_000, MeasureInstructions: 100_000}
}

// TestFaultedRunIsolatesFailures is the headline acceptance test: with
// an observer panic injected into one workload and a full stall (caught
// by the watchdog) injected into another, RunAll still completes, the
// two faulted workloads report their own failures, and every other
// workload's tables are byte-identical to a clean run.
func TestFaultedRunIsolatesFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload set in -short mode")
	}
	ctx := context.Background()

	clean, err := repro.RunAll(ctx, resilienceWindow())
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	cfg := resilienceWindow()
	cfg.WatchdogInterval = 500 * time.Millisecond
	cfg.Faults = faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.ObserverPanic, Workload: "goban", At: 60_000, Message: "injected goban panic"},
		faultinject.Fault{Kind: faultinject.SlowStep, Workload: "lzw", At: 70_000, Delay: time.Minute},
	)
	reports, err := repro.RunAll(ctx, cfg)
	if err == nil {
		t.Fatal("faulted run must surface an error")
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Benchmark != "goban" {
		t.Errorf("aggregated error lacks goban's PanicError: %v", err)
	}
	var we *core.WatchdogError
	if !errors.As(err, &we) || we.Benchmark != "lzw" {
		t.Errorf("aggregated error lacks lzw's WatchdogError: %v", err)
	}

	// The stalled workload degrades to a truncated partial report with
	// the instructions measured before the stall.
	var lzw *repro.Report
	var healthy []*repro.Report
	for _, r := range reports {
		switch {
		case r.Benchmark == "lzw":
			lzw = r
		case !r.Truncated:
			healthy = append(healthy, r)
		}
	}
	if lzw == nil {
		t.Fatal("stalled lzw run did not yield a partial report")
	}
	if !lzw.Truncated || lzw.TruncatedReason != core.ReasonWatchdog {
		t.Errorf("lzw partial report = Truncated:%v reason:%q, want watchdog truncation",
			lzw.Truncated, lzw.TruncatedReason)
	}
	if lzw.MeasuredInstructions == 0 || lzw.MeasuredInstructions >= 100_000 {
		t.Errorf("lzw measured %d instructions, want a mid-window count", lzw.MeasuredInstructions)
	}
	if lzw.Metrics == nil {
		t.Error("lzw partial report lost its run metrics")
	}

	// Every untouched workload renders byte-identically to the clean
	// run: fault injection in one goroutine cannot perturb another's
	// deterministic simulation.
	var cleanSurvivors []*repro.Report
	for _, r := range clean {
		if r.Benchmark != "goban" && r.Benchmark != "lzw" {
			cleanSurvivors = append(cleanSurvivors, r)
		}
	}
	if len(healthy) != len(cleanSurvivors) {
		t.Fatalf("faulted run kept %d healthy reports, want %d", len(healthy), len(cleanSurvivors))
	}
	if got, want := repro.FormatAll(healthy), repro.FormatAll(cleanSurvivors); got != want {
		t.Error("healthy workloads' tables differ from the uninjected run")
	}
}

// TestRunWorkloadCompileFault checks the compile-time fault point:
// the error surfaces before any simulation and no report is produced.
func TestRunWorkloadCompileFault(t *testing.T) {
	cfg := repro.QuickConfig()
	cfg.Faults = faultinject.NewPlan(faultinject.Fault{Kind: faultinject.CompileFail, Workload: "m88k"})
	r, err := repro.RunWorkload(context.Background(), "m88k", cfg)
	if err == nil || !strings.Contains(err.Error(), "injected compile failure") {
		t.Fatalf("err = %v, want injected compile failure", err)
	}
	if r != nil {
		t.Errorf("compile failure produced a report: %+v", r)
	}
}

// TestRunSourceTimeoutPartialReport drives the timeout path through
// RunSource and checks the partial report travels with the error.
func TestRunSourceTimeoutPartialReport(t *testing.T) {
	cfg := repro.Config{
		Timeout: 30 * time.Millisecond,
		Faults:  faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SlowStep, At: 1_000, Delay: time.Hour}),
	}
	r, err := repro.RunSource(context.Background(), `
int main() {
	int i;
	for (i = 0; i < 1000000; i++) {}
	return 0;
}`, nil, "slowpoke", cfg)
	var te *core.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if r == nil || !r.Truncated || r.TruncatedReason != core.ReasonTimeout {
		t.Fatalf("partial report = %+v, want timeout truncation", r)
	}
}

// TestReportJSONRefusesPartialReports pins that Runner.ReportJSON
// returns bytes only for a complete report, so the server may keep
// them as a known-good copy: a run that hands back a truncated report
// without an error fails, with or without a cache, and nothing is
// stored.
func TestReportJSONRefusesPartialReports(t *testing.T) {
	partial := func(_ context.Context, name string, _ repro.Config) (*repro.Report, error) {
		return &repro.Report{Benchmark: name, Truncated: true, TruncatedReason: core.ReasonTimeout}, nil
	}
	cache, err := resultcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, rn := range []*repro.Runner{{Run: partial}, {Run: partial, Cache: cache}} {
		data, err := rn.ReportJSON(context.Background(), "lzw", repro.QuickConfig())
		if err == nil || data != nil {
			t.Errorf("cached=%v: ReportJSON of a truncated report gave %d bytes, err %v; want an error",
				rn.Cache != nil, len(data), err)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("a truncated report was stored: %d entries", n)
	}
}

// TestFormatMarksTruncatedReports checks the table renderers: truncated
// rows carry a dagger and a footnote, and clean reports render exactly
// as before.
func TestFormatMarksTruncatedReports(t *testing.T) {
	full := &repro.Report{Benchmark: "alpha"}
	part := &repro.Report{Benchmark: "beta", Truncated: true,
		TruncatedReason: core.ReasonWatchdog, MeasuredInstructions: 12_345}

	cleanOnly, err := repro.Format("table1", []*repro.Report{full})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cleanOnly, "†") {
		t.Error("clean report rendered with a truncation mark")
	}

	mixed, err := repro.Format("table1", []*repro.Report{full, part})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mixed, "beta†") {
		t.Errorf("truncated row lacks the dagger:\n%s", mixed)
	}
	if strings.Contains(mixed, "alpha†") {
		t.Errorf("clean row gained a dagger:\n%s", mixed)
	}
	if !strings.Contains(mixed, "watchdog") || !strings.Contains(mixed, "truncated run") {
		t.Errorf("missing truncation footnote:\n%s", mixed)
	}

	all := repro.FormatAll([]*repro.Report{full, part})
	if n := strings.Count(all, "truncated run, statistics cover a partial window"); n != 1 {
		t.Errorf("FormatAll renders %d truncation footnotes, want exactly 1", n)
	}
}

// chaosGolden reads the golden corpus entry for a workload.
func chaosGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatalf("golden corpus missing for %s: %v", name, err)
	}
	return data
}

// TestChaosOverloadedServer is the chaos acceptance test for the
// overload-hardened serving stack: 50 concurrent clients hammer a
// server with two simulation slots while three workloads are poisoned
// with injected faults (a simulator fault, an observer panic, and a
// stall caught by the watchdog). The invariants under chaos:
//
//   - every 200 response carries golden-corpus bytes — load shedding
//     and fault isolation never corrupt a served report;
//   - a poisoned workload is never served 200 (it has no known-good
//     copy to go stale on), and its breaker opens after at most two
//     burned simulations;
//   - each healthy workload simulates exactly once, and only healthy
//     reports enter the cache (no poisoning);
//   - /healthz reports degraded with the poisoned breakers open.
//
// Faults are injected inside the Run override — per-call, per-workload
// — so the server's RunConfig stays clean and cacheable, exactly the
// shape of a backend that fails for reasons the frontend cannot see.
// INSTREP_STRESS=<duration> extends the traffic phase (make stress).
func TestChaosOverloadedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	poisoned := map[string]bool{"lisp": true, "cc1": true, "odb": true}
	cfg := repro.QuickConfig()

	var simMu sync.Mutex
	sims := map[string]int{}
	run := func(ctx context.Context, name string, rcfg repro.Config) (*repro.Report, error) {
		simMu.Lock()
		sims[name]++
		simMu.Unlock()
		switch name {
		case "lisp":
			rcfg.Faults = faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.SimFault, Workload: "lisp", At: 300_000})
		case "cc1":
			rcfg.Faults = faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.ObserverPanic, Workload: "cc1", At: 300_000,
				Message: "injected chaos panic"})
		case "odb":
			rcfg.Faults = faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.SlowStep, Workload: "odb", At: 300_000,
				Delay: time.Minute})
			rcfg.WatchdogInterval = 300 * time.Millisecond
		}
		return repro.RunWorkload(ctx, name, rcfg)
	}

	cache, err := resultcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := reportserver.New(reportserver.Config{
		RunConfig:         cfg,
		Cache:             cache,
		MaxConcurrentSims: 2,
		QueueDepth:        2,
		BreakerThreshold:  2,
		BreakerCooldown:   time.Hour,
		ServeStale:        true,
		Run:               run,
	})
	srv.MarkReady()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	names := repro.Workloads()
	golden := map[string][]byte{}
	for _, name := range names {
		if !poisoned[name] {
			golden[name] = chaosGolden(t, name)
		}
	}

	// Traffic phase: 50 clients, each walking the workload list from a
	// different offset so every workload sees concurrent demand.
	stress := 0 * time.Second
	if v := os.Getenv("INSTREP_STRESS"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("INSTREP_STRESS: %v", err)
		}
		stress = d
	}
	deadline := time.Now().Add(stress)
	const clients = 50
	type response struct {
		workload string
		code     int
		body     []byte
	}
	responses := make(chan response, 4*clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				name := names[(i+pass)%len(names)]
				resp, err := http.Get(ts.URL + "/v1/report/" + name)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				responses <- response{name, resp.StatusCode, body}
				// Base mode: 4 requests per client. Stress mode: loop
				// until the INSTREP_STRESS deadline.
				if pass >= 3 && !time.Now().Before(deadline) {
					return
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(responses) }()

	for r := range responses {
		if r.code == http.StatusOK {
			if poisoned[r.workload] {
				t.Errorf("poisoned workload %s served 200", r.workload)
			} else if !bytes.Equal(r.body, golden[r.workload]) {
				t.Errorf("200 response for %s is not golden-corpus bytes", r.workload)
			}
		}
	}

	// Settled state: every healthy workload serves golden bytes from
	// the cache; every poisoned workload fails fast on its open breaker.
	for _, name := range names {
		code, body := func() (int, []byte) {
			resp, err := http.Get(ts.URL + "/v1/report/" + name)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, b
		}()
		if poisoned[name] {
			// Traffic may have shed this workload's requests before its
			// breaker reached threshold; at most two more failures (500)
			// are allowed before it must fail fast.
			for attempt := 0; code != http.StatusServiceUnavailable && attempt < 3; attempt++ {
				if code == http.StatusOK {
					t.Fatalf("poisoned %s served 200", name)
				}
				resp, err := http.Get(ts.URL + "/v1/report/" + name)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			}
			if code != http.StatusServiceUnavailable {
				t.Errorf("poisoned %s after chaos: %d, want 503 fast-fail", name, code)
			}
			continue
		}
		if code != http.StatusOK || !bytes.Equal(body, golden[name]) {
			t.Errorf("healthy %s after chaos: code=%d golden=%v", name, code, bytes.Equal(body, golden[name]))
		}
	}

	simMu.Lock()
	for _, name := range names {
		switch {
		case poisoned[name] && sims[name] > 2:
			t.Errorf("poisoned %s simulated %d times, breaker should cap at 2", name, sims[name])
		case !poisoned[name] && sims[name] != 1:
			t.Errorf("healthy %s simulated %d times, want exactly 1", name, sims[name])
		}
	}
	simMu.Unlock()
	if got := cache.Stats.Stores.Value(); got != 5 {
		t.Errorf("cache stores = %d, want 5 (healthy workloads only — no poisoning)", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"degraded"`) {
		t.Errorf("healthz after chaos: code=%d body=%s", resp.StatusCode, hbody)
	}
	for name := range poisoned {
		if !strings.Contains(string(hbody), `"`+name+`"`) {
			t.Errorf("healthz open_breakers missing %s: %s", name, hbody)
		}
	}
}
