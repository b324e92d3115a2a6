package reportserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/minic"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// newJobsServer builds a ready server with the job tier attached.
func newJobsServer(t *testing.T, cfg Config, jc JobsConfig) (*Server, *httptest.Server) {
	t.Helper()
	if jc.Dir == "" {
		jc.Dir = t.TempDir()
	}
	if jc.Backoff == 0 {
		jc.Backoff = time.Millisecond
	}
	s := New(cfg)
	if err := s.OpenJobs(jc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.jobs.Drain)
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// waitReady polls /healthz until the server answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollJob polls the status endpoint until the job reaches want.
func pollJob(t *testing.T, base, id string, want jobs.State) jobs.Doc {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("job status: code=%d body=%q", code, body)
		}
		var doc jobs.Doc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == want {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id[:12], doc.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycleOverHTTP walks the whole async path: submit (202 +
// Location), duplicate submit (200, same job), poll to done, fetch the
// report, and confirm the bytes match the synchronous endpoint for the
// same measurement.
func TestJobLifecycleOverHTTP(t *testing.T) {
	var sims atomic.Int64
	cfg := Config{
		RunConfig: repro.Config{SkipInstructions: 50, MeasureInstructions: 500},
		Run:       fakeRun(&sims, 0),
	}
	_, ts := newJobsServer(t, cfg, JobsConfig{})

	code, hdr, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+doc.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, doc.ID)
	}
	// The spec was defaulted from the server's RunConfig.
	if doc.Spec.Skip != 50 || doc.Spec.Measure != 500 {
		t.Errorf("spec window = %d/%d, want the RunConfig defaults 50/500", doc.Spec.Skip, doc.Spec.Measure)
	}

	// An identical resubmit is the same job, answered 200.
	code, _, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	var dup jobs.Doc
	json.Unmarshal(body, &dup)
	if code != http.StatusOK || dup.ID != doc.ID {
		t.Errorf("duplicate submit: code=%d id=%s, want 200/%s", code, dup.ID, doc.ID)
	}

	pollJob(t, ts.URL, doc.ID, jobs.StateDone)
	code, _, jobReport := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("job report: code=%d body=%q", code, jobReport)
	}
	code, syncReport := get(t, ts.URL+"/v1/report/lzw")
	if code != http.StatusOK {
		t.Fatalf("sync report: code=%d", code)
	}
	if !bytes.Equal(jobReport, syncReport) {
		t.Errorf("async report differs from sync report:\n%s\n%s", jobReport, syncReport)
	}
}

// TestShortJobWritesNoSnapshot runs a real job whose window fits in one
// run-loop chunk, the shape of a golden grid cell, with snapshots paced
// every 25k retired instructions and the watchdog armed as `serve
// -watchdog` arms it. Its only chunk boundaries are the end of the skip
// phase (10k retired, not yet due) and the end of the window, which
// never snapshots, so the job writes nothing; its report still matches
// a direct run byte for byte.
func TestShortJobWritesNoSnapshot(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	window := repro.Config{SkipInstructions: 10_000, MeasureInstructions: 50_000}
	runCfg := window
	runCfg.WatchdogInterval = 30 * time.Second
	_, ts := newJobsServer(t, Config{RunConfig: runCfg, Checkpoints: store}, JobsConfig{CheckpointEvery: 25_000})

	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, doc.ID, jobs.StateDone)
	code, _, got := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("job report: code=%d body=%q", code, got)
	}
	rep, err := repro.RunWorkload(context.Background(), "lzw", window)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("job report differs from a direct run (%d vs %d bytes)", len(got), len(want))
	}

	_, prom := get(t, ts.URL+"/metrics?format=prometheus")
	if !strings.Contains(string(prom), "\ninstrep_checkpoint_writes 0\n") {
		t.Errorf("checkpoint_writes is not 0 after a one-chunk job:\n%s", prom)
	}
	if n := store.Stats.Writes.Value(); n != 0 {
		t.Errorf("store wrote %d snapshots, want 0", n)
	}
}

// TestJobReportRecomputeKeepsShaping evicts a done job's report from a
// one-entry memory cache, so GET /v1/jobs/{id}/report recomputes it.
// The recompute must run under the server's RunConfig like the job's
// attempt did: timeout, watchdog, the server's health counters and
// run registry.
func TestJobReportRecomputeKeepsShaping(t *testing.T) {
	var mu sync.Mutex
	var ran []repro.Config
	var sims atomic.Int64
	fake := fakeRun(&sims, 0)
	cache, err := resultcache.New(1, "")
	if err != nil {
		t.Fatal(err)
	}
	runCfg := repro.Config{
		SkipInstructions:    50,
		MeasureInstructions: 500,
		Timeout:             time.Minute,
		WatchdogInterval:    30 * time.Second,
	}
	s, ts := newJobsServer(t, Config{
		RunConfig: runCfg,
		Cache:     cache,
		Run: func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			mu.Lock()
			ran = append(ran, cfg)
			mu.Unlock()
			return fake(ctx, name, cfg)
		},
	}, JobsConfig{})

	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, doc.ID, jobs.StateDone)
	if code, _ := get(t, ts.URL+"/v1/report/goban"); code != http.StatusOK {
		t.Fatalf("evicting request: code=%d", code)
	}
	if code, _, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", ""); code != http.StatusOK {
		t.Fatalf("job report: code=%d body=%q", code, body)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 3 {
		t.Fatalf("%d runs, want the attempt, the evicting request and the recompute", len(ran))
	}
	for i, cfg := range ran {
		if cfg.Timeout != runCfg.Timeout || cfg.WatchdogInterval != runCfg.WatchdogInterval ||
			cfg.Health != s.reg.Health() || cfg.Runs != s.runs {
			t.Errorf("run %d lost the server's shaping: timeout=%v watchdog=%v health=%t runs=%t",
				i, cfg.Timeout, cfg.WatchdogInterval, cfg.Health == s.reg.Health(), cfg.Runs == s.runs)
		}
	}
}

// TestJobReportPending pins the not-ready contract: 202 + Retry-After +
// the status doc, for both the report and status endpoints.
func TestJobReportPending(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		select {
		case <-release:
			return &repro.Report{Benchmark: name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newJobsServer(t, Config{Run: run}, JobsConfig{})
	defer close(release)

	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw","measure":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	json.Unmarshal(body, &doc)

	code, hdr, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", "")
	if code != http.StatusAccepted {
		t.Fatalf("pending report: code=%d body=%q", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("pending report carries no Retry-After")
	}
	var pending jobs.Doc
	if err := json.Unmarshal(body, &pending); err != nil || pending.State.Terminal() {
		t.Errorf("pending report body = %q (err %v), want a live status doc", body, err)
	}
	code, hdr, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID, "")
	if code != http.StatusOK || hdr.Get("Retry-After") == "" {
		t.Errorf("live status: code=%d retry-after=%q, want 200 with pacing", code, hdr.Get("Retry-After"))
	}
}

// TestJobErrors pins the failure-mode statuses: bad spec 400, unknown
// job 404, failed job report 500, canceled job report 410, cancel of a
// terminal job 409.
func TestJobErrors(t *testing.T) {
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		return nil, &minic.Error{Line: 1, Msg: "boom"}
	}
	_, ts := newJobsServer(t, Config{Run: run}, JobsConfig{})

	if code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload: code=%d body=%q", code, body)
	}
	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{bad json`); code != http.StatusBadRequest {
		t.Errorf("bad json: code=%d", code)
	}
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/feedc0de", ""); code != http.StatusNotFound {
		t.Errorf("unknown job status: code=%d", code)
	}
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/feedc0de", ""); code != http.StatusNotFound {
		t.Errorf("unknown job cancel: code=%d", code)
	}

	// A compile error fails permanently (no retries burned).
	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	json.Unmarshal(body, &doc)
	failed := pollJob(t, ts.URL, doc.ID, jobs.StateFailed)
	if failed.Retries != 0 || !strings.Contains(failed.Error, "boom") {
		t.Errorf("failed doc = %+v, want 0 retries and the compile error", failed)
	}
	if code, _, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", ""); code != http.StatusInternalServerError || !strings.Contains(string(body), "boom") {
		t.Errorf("failed report: code=%d body=%q", code, body)
	}
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, ""); code != http.StatusConflict {
		t.Errorf("cancel terminal: code=%d", code)
	}
}

// TestJobCancelOverHTTP cancels a running job and pins the 410 report.
func TestJobCancelOverHTTP(t *testing.T) {
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newJobsServer(t, Config{Run: run}, JobsConfig{})

	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	json.Unmarshal(body, &doc)
	<-started
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, ""); code != http.StatusOK {
		t.Errorf("cancel running: code=%d", code)
	}
	pollJob(t, ts.URL, doc.ID, jobs.StateCanceled)
	if code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", ""); code != http.StatusGone {
		t.Errorf("canceled report: code=%d", code)
	}
}

// TestJobsObservability pins /debug/jobs, the job_ sections of
// /healthz and /metrics (JSON and Prometheus), and that none of them
// exist without the job tier.
func TestJobsObservability(t *testing.T) {
	var sims atomic.Int64
	s, ts := newJobsServer(t, Config{Run: fakeRun(&sims, 0)}, JobsConfig{})

	code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	json.Unmarshal(body, &doc)
	pollJob(t, ts.URL, doc.ID, jobs.StateDone)

	code, body = get(t, ts.URL+"/debug/jobs")
	if code != http.StatusOK {
		t.Fatalf("/debug/jobs: code=%d", code)
	}
	var debug jobsDebugDoc
	if err := json.Unmarshal(body, &debug); err != nil {
		t.Fatal(err)
	}
	if debug.Count != 1 || len(debug.Jobs) != 1 || debug.Jobs[0].State != jobs.StateDone {
		t.Errorf("/debug/jobs = %+v", debug)
	}

	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"jobs_queued"`) {
		t.Errorf("/healthz without job gauges: code=%d body=%q", code, body)
	}
	_, body = get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `"jobs"`) {
		t.Errorf("/metrics JSON missing jobs section")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "instrep_job_done 1") {
		t.Errorf("prometheus exposition missing instrep_job_done:\n%s", prom)
	}
	_ = s

	// A server without OpenJobs has no job routes at all.
	plain := New(Config{Run: fakeRun(&sims, 0)})
	plain.MarkReady()
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	if code, _, _ := doJSON(t, http.MethodPost, pts.URL+"/v1/jobs", `{"workload":"lzw"}`); code != http.StatusNotFound {
		t.Errorf("jobless server answered /v1/jobs with %d", code)
	}
}

// TestSiblingJobReplaysOverHTTP runs two jobs that differ only in the
// reuse buffer: the second replays the first's census verdicts, its
// status document says "replayed": true (the first's omits the field),
// /metrics counts job_replayed, and its report matches a standalone run.
func TestSiblingJobReplaysOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	_, ts := newJobsServer(t, Config{}, JobsConfig{})
	for i, entries := range []int{1024, 64} {
		spec := fmt.Sprintf(`{"workload":"lzw","skip":10000,"measure":50000,"reuse_entries":%d}`, entries)
		code, _, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: code=%d body=%q", code, body)
		}
		var doc jobs.Doc
		json.Unmarshal(body, &doc)
		pollJob(t, ts.URL, doc.ID, jobs.StateDone)
		_, _, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID, "")
		if got := bytes.Contains(raw, []byte(`"replayed": true`)); got != (i == 1) {
			t.Errorf("job %d status document:\n%s", i, raw)
		}
		if i == 0 && bytes.Contains(raw, []byte(`"replayed"`)) {
			t.Errorf("the leader's status document names the field:\n%s", raw)
		}
		code, _, got := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/report", "")
		if code != http.StatusOK {
			t.Fatalf("report: code=%d", code)
		}
		rep, err := repro.RunWorkload(context.Background(), "lzw",
			repro.Config{SkipInstructions: 10_000, MeasureInstructions: 50_000, ReuseEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := repro.CanonicalReportJSON(rep); !bytes.Equal(got, want) {
			t.Errorf("job %d's report differs from a standalone run", i)
		}
	}
	_, body := get(t, ts.URL+"/metrics?format=prometheus")
	if !strings.Contains(string(body), "instrep_job_replayed 1") {
		t.Errorf("/metrics does not count one replayed job:\n%s", body)
	}
}

// TestServeDrainsJobs pins graceful shutdown: canceling the serve
// context drains the manager, journaling the in-flight job as
// interrupted, and a second server over the same directories recovers
// and finishes it.
func TestServeDrainsJobs(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := New(Config{Run: blockRun})
	if err := s.OpenJobs(JobsConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- s.Serve(ctx, l) }()
	base := "http://" + l.Addr().String()
	waitReady(t, base)

	code, _, body := doJSON(t, http.MethodPost, base+"/v1/jobs", `{"workload":"lzw"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d body=%q", code, body)
	}
	var doc jobs.Doc
	json.Unmarshal(body, &doc)
	<-started
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Second life: recovery re-enqueues, a working runner finishes.
	var sims atomic.Int64
	s2 := New(Config{Run: fakeRun(&sims, 0)})
	if err := s2.OpenJobs(JobsConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.jobs.Drain)
	s2.MarkReady()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	got := pollJob(t, ts.URL, doc.ID, jobs.StateDone)
	if got.ID != doc.ID {
		t.Errorf("recovered job id = %s, want %s", got.ID, doc.ID)
	}
}

// TestJobSubmitRejectsBadSpecs: a spec with an out-of-range geometry,
// a negative table size, an unknown field or trailing data is a 400.
// Nothing is journaled, nothing runs (so no panic is recovered), and
// the workload's breaker stays closed.
func TestJobSubmitRejectsBadSpecs(t *testing.T) {
	var runs atomic.Int64
	run := func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		runs.Add(1)
		return nil, errors.New("a rejected spec ran")
	}
	s, ts := newJobsServer(t, Config{Run: run, BreakerThreshold: 1}, JobsConfig{})
	for _, body := range []string{
		`{"workload":"lzw","reuse_assoc":-1}`,
		`{"workload":"lzw","reuse_assoc":1000000000}`,
		`{"workload":"lzw","vpred_entries":-1}`,
		`{"workload":"lzw","reuse_entires":64}`,
		`{"workload":"lzw"} {"workload":"lzw"}`,
		`{"workload":"lzw"}}`,
	} {
		if code, _, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: code=%d body=%q, want 400", body, code, resp)
		}
	}
	if docs := s.jobs.List(); len(docs) != 0 {
		t.Errorf("rejected specs left %d jobs", len(docs))
	}
	if runs.Load() != 0 {
		t.Errorf("rejected specs ran %d times", runs.Load())
	}
	if n := s.reg.Health().PanicsRecovered.Value(); n != 0 {
		t.Errorf("%d panics recovered", n)
	}
	if open := s.breakers.Open(); len(open) != 0 {
		t.Errorf("open breakers %v, want none", open)
	}
}

// TestJobSpecsFromConfigDecodeStrictly: the writer's specs (perfbench
// marshals jobs.SpecFromConfig for every cell of the golden sweep
// grid) carry only known fields, so strict decoding accepts them.
func TestJobSpecsFromConfigDecodeStrictly(t *testing.T) {
	cells, err := sweep.Expand(&sweep.Spec{
		Entries:  []int{1024, 8192, 65536},
		Assoc:    []int{1, 4},
		Policies: []string{"lru", "random"},
		Skip:     10_000,
		Measure:  50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newJobsServer(t, Config{Run: func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		return nil, &minic.Error{Msg: "not run"}
	}}, JobsConfig{})
	for _, c := range cells {
		body, err := json.Marshal(jobs.SpecFromConfig(c.Workload, c.Config))
		if err != nil {
			t.Fatal(err)
		}
		if code, _, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", string(body)); code != http.StatusAccepted {
			t.Fatalf("cell %s: code=%d body=%q, want 202", c.ID(), code, resp)
		}
	}
}
