package reportserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/resultcache"
)

// fakeRun returns a Run override that fabricates a complete report and
// counts simulations.
func fakeRun(count *atomic.Int64, delay time.Duration) func(context.Context, string, repro.Config) (*repro.Report, error) {
	return func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		count.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}
		return &repro.Report{
			Benchmark:            name,
			DynTotal:             12345,
			MeasuredInstructions: cfg.MeasureInstructions,
			DynRepeatedPct:       80,
		}, nil
	}
}

// newTestServer builds a server around a fake runner and a cache,
// marked ready the way Serve would.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHealthz pins the readiness state machine: a freshly built server
// is "starting" (503, so load balancers hold traffic), MarkReady flips
// it to "ready" (200).
func TestHealthz(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"starting"`) {
		t.Fatalf("healthz before ready: code=%d body=%q", code, body)
	}
	s.MarkReady()
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ready"`) {
		t.Fatalf("healthz after MarkReady: code=%d body=%q", code, body)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK {
		t.Fatalf("workloads: code=%d", code)
	}
	var infos []repro.WorkloadInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(repro.Workloads()) {
		t.Fatalf("got %d workloads, want %d", len(infos), len(repro.Workloads()))
	}
}

func TestReportMissThenHit(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})
	code1, body1 := get(t, ts.URL+"/v1/report/goban")
	code2, body2 := get(t, ts.URL+"/v1/report/goban")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("codes: %d, %d", code1, code2)
	}
	if sims.Load() != 1 {
		t.Fatalf("second request must hit the cache: %d simulations", sims.Load())
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit served different bytes than the miss")
	}
	var rep repro.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "goban" || rep.DynTotal != 12345 {
		t.Fatalf("served report wrong: %+v", rep)
	}
}

func TestReportUnknownWorkload(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})
	code, body := get(t, ts.URL+"/v1/report/nope")
	if code != http.StatusNotFound {
		t.Fatalf("want 404, got %d: %s", code, body)
	}
	if sims.Load() != 0 {
		t.Fatal("unknown workload must not simulate")
	}
}

// TestSingleflightUnderConcurrentClients is the acceptance hammer: N
// concurrent requests for one cold key cause exactly one simulation.
// Run under -race via the Makefile race target.
func TestSingleflightUnderConcurrentClients(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 100*time.Millisecond)})

	const clients = 12
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/report/goban")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if n := sims.Load(); n != 1 {
		t.Fatalf("want exactly 1 simulation for %d concurrent clients, got %d", clients, n)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
}

// TestCancelMidSimulation pins that a client disconnect aborts the
// simulation through its context, nothing poisons the cache, and the
// next request computes cleanly.
func TestCancelMidSimulation(t *testing.T) {
	var sims atomic.Int64
	simStarted := make(chan struct{}, 8)
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		sims.Add(1)
		simStarted <- struct{}{}
		<-ctx.Done() // wedge until the request is canceled
		return nil, context.Cause(ctx)
	}
	var okRun atomic.Bool
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		if okRun.Load() {
			return fakeRun(&sims, 0)(ctx, name, cfg)
		}
		return run(ctx, name, cfg)
	}})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/report/goban", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-simStarted
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request should fail on the client side")
	}

	// The aborted simulation must not be cached: the next request
	// simulates again and succeeds.
	okRun.Store(true)
	code, body := get(t, ts.URL+"/v1/report/goban")
	if code != http.StatusOK {
		t.Fatalf("follow-up request failed: %d %s", code, body)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("want 2 simulations (aborted + fresh), got %d", n)
	}
}

// TestCorruptDiskEntryServed pins the disk tier's corruption fallback
// end to end: a scribbled cache file is detected, dropped, recomputed,
// and healed, and the client never sees the corruption.
func TestCorruptDiskEntryServed(t *testing.T) {
	dir := t.TempDir()
	cache, err := resultcache.New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int64
	runCfg := repro.QuickConfig()
	_, ts := newTestServer(t, Config{Cache: cache, RunConfig: runCfg, Run: fakeRun(&sims, 0)})

	// Plant garbage at the exact key the server will look up.
	source, ok := repro.WorkloadSource("goban")
	if !ok {
		t.Fatal("no source for goban")
	}
	key := resultcache.Fingerprint("goban", source, runCfg)
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte(`{"Benchmark":"goban",`), 0o644); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.URL+"/v1/report/goban")
	if code != http.StatusOK {
		t.Fatalf("corrupt entry leaked to the client: %d %s", code, body)
	}
	var rep repro.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "goban" || rep.DynTotal != 12345 {
		t.Fatalf("served report wrong after corruption: %+v", rep)
	}
	if sims.Load() != 1 {
		t.Fatalf("corrupt entry must recompute: %d simulations", sims.Load())
	}
	if cache.Stats.Corrupt.Value() != 1 {
		t.Fatalf("corrupt counter: %d", cache.Stats.Corrupt.Value())
	}
	// Healed: the file now byte-matches the served body.
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, body) {
		t.Fatal("healed disk entry differs from the served canonical JSON")
	}
}

func TestTablesEndpoint(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})

	code, body := get(t, ts.URL+"/v1/tables/goban?experiment=table1")
	if code != http.StatusOK {
		t.Fatalf("tables: %d %s", code, body)
	}
	if !strings.Contains(string(body), "goban") || !strings.Contains(string(body), "Table 1") {
		t.Fatalf("table output missing content:\n%s", body)
	}

	code, body = get(t, ts.URL+"/v1/tables/goban?experiment=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad experiment should 400, got %d: %s", code, body)
	}
	if sims.Load() != 1 {
		t.Fatal("invalid experiment must be rejected before simulating")
	}

	code, _ = get(t, ts.URL+"/v1/tables/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown workload should 404, got %d", code)
	}

	// "all" renders every workload through the same cache.
	code, body = get(t, ts.URL+"/v1/tables/all")
	if code != http.StatusOK {
		t.Fatalf("tables/all: %d", code)
	}
	for _, name := range repro.Workloads() {
		if !strings.Contains(string(body), name) {
			t.Errorf("tables/all missing %s", name)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})
	get(t, ts.URL+"/v1/report/goban")
	get(t, ts.URL+"/v1/report/goban")

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var doc struct {
		Requests []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"requests"`
		Latency []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"latency"`
		Cache []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	find := func(section string) map[string]int64 {
		out := map[string]int64{}
		switch section {
		case "requests":
			for _, v := range doc.Requests {
				out[v.Name] = v.Value
			}
		case "cache":
			for _, v := range doc.Cache {
				out[v.Name] = v.Value
			}
		}
		return out
	}
	if got := find("requests")["server_requests_report"]; got != 2 {
		t.Errorf("server_requests_report = %d, want 2", got)
	}
	cache := find("cache")
	if cache["hits"] != 1 || cache["misses"] != 1 {
		t.Errorf("cache counters wrong: %v", cache)
	}
	foundLatency := false
	for _, l := range doc.Latency {
		if l.Name == "server_latency_report" && l.Count == 2 {
			foundLatency = true
		}
	}
	if !foundLatency {
		t.Errorf("server_latency_report histogram missing or wrong: %+v", doc.Latency)
	}
}

// TestServeGracefulShutdown pins the daemon lifecycle: canceling the
// serve context stops the listener and Serve returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	var sims atomic.Int64
	s := New(Config{Run: fakeRun(&sims, 0)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cpus := core.ClaimedCPUs()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	code, _ := get(t, url+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", code)
	}
	// Request handling holds one CPU, so no simulation takes it for an
	// observer helper, until Serve returns.
	if n := core.ClaimedCPUs(); n != cpus+1 {
		t.Errorf("%d CPUs claimed while serving, want %d", n, cpus+1)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	if n := core.ClaimedCPUs(); n != cpus {
		t.Errorf("%d CPUs claimed after Serve returned, want %d", n, cpus)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener should be closed after shutdown")
	}
}

// TestServedReportMatchesGoldenCorpus is the end-to-end acceptance
// check with the real simulator: every workload served through the
// cache — cold, from the disk tier, and from the memory tier — is
// byte-identical to a direct RunWorkload, all pinned by the golden
// corpus, and goes out with its Content-Length rather than chunked.
func TestServedReportMatchesGoldenCorpus(t *testing.T) {
	cfg := repro.QuickConfig()
	// One memory slot over a disk tier: after the cold pass only the
	// last workload is in memory, so the second pass alternates a disk
	// hit (which promotes the entry) with a memory hit.
	cache, err := resultcache.New(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{RunConfig: cfg, Cache: cache})

	names := repro.Workloads()
	golden := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
		if err != nil {
			t.Fatalf("golden corpus missing: %v", err)
		}
		golden[name] = data
	}
	check := func(name, tier string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/report/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("%s %s request: status %d", tier, name, resp.StatusCode)
		case resp.Header.Get("X-Instrep-Stale") != "":
			t.Fatalf("%s %s request: served stale", tier, name)
		case !bytes.Equal(body, golden[name]):
			t.Fatalf("%s %s request: served report differs from the golden corpus", tier, name)
		case resp.ContentLength != int64(len(golden[name])) || len(resp.TransferEncoding) != 0:
			t.Fatalf("%s %s request: ContentLength %d, TransferEncoding %v; want %d, none",
				tier, name, resp.ContentLength, resp.TransferEncoding, len(golden[name]))
		}
	}
	for _, name := range names {
		check(name, "cold")
	}
	for _, name := range names {
		check(name, "disk")
		check(name, "memory")
	}
	n := uint64(len(names))
	if cache.Stats.Misses.Value() != n || cache.Stats.DiskHits.Value() != n || cache.Stats.Hits.Value() != n {
		t.Fatalf("misses=%d disk hits=%d memory hits=%d, want %d each",
			cache.Stats.Misses.Value(), cache.Stats.DiskHits.Value(), cache.Stats.Hits.Value(), n)
	}

	direct, err := repro.RunWorkload(context.Background(), "lzw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.CanonicalReportJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, golden["lzw"]) {
		t.Fatal("direct RunWorkload differs from the golden corpus")
	}
}

// TestRequestTimeout pins the per-request timeout: a simulation slower
// than the budget is cut off with 504.
func TestRequestTimeout(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{
		Run:            fakeRun(&sims, 5*time.Second),
		RequestTimeout: 50 * time.Millisecond,
	})
	code, body := get(t, ts.URL+"/v1/report/goban")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", code, body)
	}
}

// TestOverloadShedsBurst is the overload acceptance check: with one
// simulation slot and a queue of one, a cold burst of 16 requests (two
// per workload) keeps exactly one simulation in flight and at most one
// queued, sheds the rest with 503 + Retry-After, and completes the
// admitted work correctly. The outcome counts are deterministic even
// though which workloads win the slot is not: same-workload pairs
// coalesce through the singleflight, so eight leaders contend for the
// gate — one runs, one queues, six shed, and every follower inherits
// its leader's outcome (12 shed responses, 4 served).
func TestOverloadShedsBurst(t *testing.T) {
	var sims atomic.Int64
	release := make(chan struct{})
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		sims.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		return &repro.Report{Benchmark: name, DynTotal: 12345}, nil
	}
	s, ts := newTestServer(t, Config{
		MaxConcurrentSims: 1,
		QueueDepth:        1,
		RetryAfter:        7 * time.Second,
		Run:               run,
	})

	workloads := repro.Workloads()
	if len(workloads) != 8 {
		t.Fatalf("test assumes 8 workloads, have %d", len(workloads))
	}
	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, 2*len(workloads))
	for _, name := range workloads {
		for i := 0; i < 2; i++ {
			go func(name string) {
				resp, err := http.Get(ts.URL + "/v1/report/" + name)
				if err != nil {
					t.Error(err)
					results <- result{}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
			}(name)
		}
	}

	// The 12 shed responses complete on their own; the 4 admitted ones
	// are blocked on the release channel until we open it.
	var codes []result
	for len(codes) < 12 {
		codes = append(codes, <-results)
	}
	close(release)
	for len(codes) < 16 {
		codes = append(codes, <-results)
	}

	var ok, shed int
	for _, r := range codes {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter != "7" {
				t.Errorf("shed response Retry-After = %q, want \"7\"", r.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if ok != 4 || shed != 12 {
		t.Fatalf("got %d ok / %d shed, want 4 / 12", ok, shed)
	}
	if n := sims.Load(); n != 2 {
		t.Errorf("simulations = %d, want 2 (slot holder + queued)", n)
	}
	if hw := s.gate.MaxInFlight(); hw != 1 {
		t.Errorf("max in-flight = %d, want 1", hw)
	}
	if hw := s.gate.MaxQueued(); hw > 1 {
		t.Errorf("max queued = %d, want <= 1", hw)
	}

	// Shed responses are metered apart from served ones:
	// server_latency_shed holds the 12 rejections so the
	// server_latency_report distribution stays honest.
	_, body := get(t, ts.URL+"/metrics")
	var doc struct {
		Requests []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"requests"`
		Latency []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, v := range doc.Requests {
		counters[v.Name] = v.Value
	}
	if counters["server_shed"] != 12 {
		t.Errorf("server_shed = %d, want 12", counters["server_shed"])
	}
	timers := map[string]uint64{}
	for _, l := range doc.Latency {
		timers[l.Name] = l.Count
	}
	if timers["server_latency_shed"] != 12 || timers["server_latency_report"] != 4 {
		t.Errorf("latency split = shed:%d report:%d, want 12/4",
			timers["server_latency_shed"], timers["server_latency_report"])
	}
}

// TestDegradedStaleServing walks the degradation ladder: a workload
// with a known-good report keeps being served (stale, flagged) while
// its simulations fail and then while its breaker is open — without
// burning simulation slots — and a workload with no good copy fails
// fast. /healthz reports degraded the whole time.
func TestDegradedStaleServing(t *testing.T) {
	cache, err := resultcache.New(1, "") // one memory slot: lzw below evicts goban
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int64
	var failing atomic.Bool
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		if failing.Load() {
			sims.Add(1)
			return nil, fmt.Errorf("simulated fault in %s", name)
		}
		return fakeRun(&sims, 0)(ctx, name, cfg)
	}
	s, ts := newTestServer(t, Config{
		Cache:            cache,
		ServeStale:       true,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Run:              run,
	})

	// Seed goban's known-good copy, then evict it from the cache so the
	// next goban request must simulate.
	code, goodBody := get(t, ts.URL+"/v1/report/goban")
	if code != http.StatusOK {
		t.Fatalf("seed request: %d", code)
	}
	get(t, ts.URL+"/v1/report/lzw")
	sims.Store(0)
	failing.Store(true)

	getStale := func() (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/report/goban")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Instrep-Stale"), body
	}

	// Failures 1 and 2: each simulates, fails, and is answered stale.
	for i := 0; i < 2; i++ {
		code, stale, body := getStale()
		if code != http.StatusOK || stale != "true" {
			t.Fatalf("failure %d: code=%d stale=%q body=%s", i+1, code, stale, body)
		}
		if !bytes.Equal(body, goodBody) {
			t.Fatalf("stale body differs from the known-good report")
		}
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("simulations before breaker opens = %d, want 2", n)
	}

	// The breaker is open now: stale is served without a simulation.
	code, stale, body := getStale()
	if code != http.StatusOK || stale != "true" || !bytes.Equal(body, goodBody) {
		t.Fatalf("breaker-open stale serve: code=%d stale=%q", code, stale)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("breaker-open request simulated: %d sims", n)
	}
	if got := s.State(); got != "degraded" {
		t.Fatalf("state = %q, want degraded", got)
	}
	code, hbody := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hbody), `"degraded"`) ||
		!strings.Contains(string(hbody), `"goban"`) {
		t.Fatalf("healthz while degraded: code=%d body=%s", code, hbody)
	}

	// A workload with no known-good copy fails fast once ITS breaker
	// opens: 503 + Retry-After, no slot burned.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/report/cc1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("cc1 failure %d: %d, want 500", i+1, resp.StatusCode)
		}
	}
	simsBefore := sims.Load()
	resp, err := http.Get(ts.URL + "/v1/report/cc1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("breaker-open no-stale request: %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if sims.Load() != simsBefore {
		t.Fatal("breaker-open request must not simulate")
	}

	// Recovery: the runs heal, the long cooldown still blocks goban (no
	// probe yet), but cached/healthy workloads keep serving normally.
	failing.Store(false)
	code, fresh := get(t, ts.URL+"/v1/report/lzw")
	if code != http.StatusOK {
		t.Fatalf("healthy workload while degraded: %d %s", code, fresh)
	}
}

// TestClientDisconnectMetrics pins satellite (b): a client that hangs
// up mid-simulation is recorded as a 499 under its own counter and
// latency timer, not mixed into the served-request percentiles.
func TestClientDisconnectMetrics(t *testing.T) {
	simStarted := make(chan struct{}, 1)
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		simStarted <- struct{}{}
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	_, ts := newTestServer(t, Config{Run: run})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/report/goban", nil)
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-simStarted
	cancel()
	<-done

	// The handler observes the disconnect asynchronously; poll the
	// metrics until the 499 lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, ts.URL+"/metrics")
		var doc struct {
			Requests []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"requests"`
			Latency []struct {
				Name  string `json:"name"`
				Count uint64 `json:"count"`
			} `json:"latency"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		counters := map[string]int64{}
		for _, v := range doc.Requests {
			counters[v.Name] = v.Value
		}
		timers := map[string]uint64{}
		for _, l := range doc.Latency {
			timers[l.Name] = l.Count
		}
		if counters["server_requests_client_disconnect"] == 1 {
			if timers["server_latency_disconnect"] != 1 {
				t.Fatalf("server_latency_disconnect = %d, want 1", timers["server_latency_disconnect"])
			}
			if timers["server_latency_report"] != 0 {
				t.Fatalf("disconnect leaked into server_latency_report (%d)", timers["server_latency_report"])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client_disconnect never recorded: %v", counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
