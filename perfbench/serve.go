package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/reportserver"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

const (
	// serveWatchdog arms the deadman watchdog the way an operator would
	// (`instrep serve -watchdog 30s`). Jobs inherit it, so their
	// simulations run on the interpreter.
	serveWatchdog = 30 * time.Second
	// jobCheckpointEvery paces job snapshots by retire count: a golden
	// grid job (60k instructions) writes two.
	jobCheckpointEvery = 25_000
	// hotEntries is the memory tier's capacity: exactly the eight hot
	// reports, so every job report stored evicts one and the next read
	// of it is served from disk.
	hotEntries = 8
	// pollEvery is how long the writer waits between job status polls.
	// `instrep job` sleeps for the server's Retry-After hint, at least
	// 200 ms, and the hint is whole seconds; that cannot resolve a job
	// of a few tens of milliseconds, so the writer polls far more often
	// and ignores the hint. Each job's first poll comes after a random
	// fraction of the interval, so the added latency is spread evenly
	// over [0, pollEvery) instead of snapping job times to a grid. The
	// traced run reports the share of the server's request time that
	// went to these polls (trace.poll_server_pct).
	pollEvery = 5 * time.Millisecond
)

// serve is the daemon under mixed reads and writes: an in-process
// reportserver.Server on a loopback listener, driven in a closed loop by
// one reader (cache-hit GETs across the eight programs) and one writer
// (golden grid jobs, one at a time). The run is a series of rounds. Each
// round starts a fresh daemon (the set-up, timed outside the load
// window), then loads it until the writer has run every grid cell once
// or the run's load time is used up. Job IDs are result-cache
// fingerprints, so a fresh job directory and cache per round is what
// lets every round run the same 96 jobs again, and every job costs what
// a golden grid cell costs. The primary operation is a hit; the batch is
// a job from submit to report fetched.
func serve(r *run) (*sample, error) {
	ref, err := loadServeRefs()
	if err != nil {
		return nil, err
	}
	cells, err := sweep.Expand(goldenSpec())
	if err != nil {
		return nil, err
	}
	s := &sample{}
	rng := rand.New(rand.NewSource(r.seed))
	var hits, lookups uint64
	for left := r.seconds; left > 0; {
		var srv *daemon
		if err := timeSetup(s, func() (err error) {
			srv, err = startDaemon(r, s, ref)
			return err
		}); err != nil {
			return nil, err
		}

		order := make([]sweep.Cell, len(cells))
		for i, j := range rng.Perm(len(cells)) {
			order[i] = cells[j]
		}
		hits0, lookups0 := srv.cache.Stats.Hits.Value(), srv.lookups()
		wall := srv.round(r, s, ref, order, left, rng.Int63())
		hits += srv.cache.Stats.Hits.Value() - hits0
		lookups += srv.lookups() - lookups0
		if r.tracer != nil {
			if err := srv.addServerTime(s); err != nil {
				srv.stop()
				return nil, err
			}
		}
		srv.stop()
		s.opsWall += wall
		s.batchWall += wall
		left -= wall
	}
	if lookups > 0 {
		ratio := float64(hits) / float64(lookups)
		r.hitRatio = &ratio
	}
	return s, nil
}

// round drives one daemon with the reader and the writer until the
// writer has run every job in order or budget has passed, and returns
// the wall time the two ran for. The reader stops when the writer does,
// so hits always compete with a running job.
func (d *daemon) round(r *run, s *sample, ref *serveRefs, order []sweep.Cell, budget time.Duration, seed int64) time.Duration {
	start := time.Now()
	deadline := start.Add(budget)
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.reader(r, s, ref, &writing, rand.New(rand.NewSource(seed)))
	}()
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		d.writer(r, s, ref, deadline, order, rand.New(rand.NewSource(seed+1)))
	}()
	wg.Wait()
	return time.Since(start)
}

// serveRefs are the pinned outputs serve checks against.
type serveRefs struct {
	reports map[string][]byte   // testdata/golden/<w>.json, at QuickConfig
	grid    map[string][]string // golden sweep CSV cell rows by cellKey
}

func loadServeRefs() (*serveRefs, error) {
	ref := &serveRefs{reports: make(map[string][]byte), grid: make(map[string][]string)}
	for _, name := range repro.Workloads() {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			return nil, err
		}
		ref.reports[name] = data
	}
	f, err := os.Open(goldenSweepCSV)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", goldenSweepCSV, err)
	}
	// scope,workload,entries,assoc,policy,skip,measure,measured,dyn_total,hit_pct_all,hit_pct_repeated,error
	for _, row := range rows {
		if len(row) == 12 && row[0] == "cell" {
			ref.grid[row[1]+"/"+row[2]+"/"+row[3]+"/"+row[4]] = row
		}
	}
	return ref, nil
}

func cellKey(c sweep.Cell) string {
	return fmt.Sprintf("%s/%d/%d/%s", c.Workload, c.Entries, c.Assoc, c.Policy)
}

// daemon is one running report server and the client that drives it.
type daemon struct {
	srv    *reportserver.Server
	cache  *resultcache.Cache
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error

	// simTrees holds each job simulation's RunMetrics phase tree, keyed
	// by job ID (the result-cache fingerprint), for the traced run.
	mu       sync.Mutex
	simTrees map[string]simTree
}

type simTree struct {
	at    time.Time
	phase obs.PhaseTiming
}

// startDaemon is serve's set-up: compile the programs, open fresh cache,
// checkpoint and journal directories, start the server, and warm its
// cache with the eight reports (checked against the golden corpus).
func startDaemon(r *run, s *sample, ref *serveRefs) (*daemon, error) {
	if err := compileAll(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.NewWith(resultcache.Options{MaxEntries: hotEntries, Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return nil, err
	}
	store, err := checkpoint.Open(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return nil, err
	}
	d := &daemon{cache: cache, simTrees: make(map[string]simTree)}
	cfg := repro.QuickConfig()
	cfg.WatchdogInterval = serveWatchdog
	d.srv = reportserver.New(reportserver.Config{
		RunConfig:   cfg,
		Cache:       cache,
		Checkpoints: store,
		Run:         d.simulate(r, s),
	})
	if err := d.srv.OpenJobs(reportserver.JobsConfig{Dir: filepath.Join(dir, "jobs"), CheckpointEvery: jobCheckpointEvery}); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + l.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxProcs, MaxConnsPerHost: maxProcs}}
	ctx, cancel := context.WithCancel(r.ctx)
	d.cancel = cancel
	d.done = make(chan error, 1)
	go func() { d.done <- d.srv.Serve(ctx, l) }()

	for _, name := range repro.Workloads() {
		d.checkHit(r, name, ref, nil)
	}
	return d, nil
}

// simulate is the server's compute function: repro.RunWorkload, with
// each run's measure-phase totals (and, traced, its phase tree) kept.
func (d *daemon) simulate(r *run, s *sample) func(context.Context, string, repro.Config) (*repro.Report, error) {
	return func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		t0 := time.Now()
		rep, err := repro.RunWorkload(ctx, name, cfg)
		s.sim.add(rep)
		if r.tracer != nil && rep != nil && rep.Metrics != nil {
			src, _ := repro.WorkloadSource(name)
			key := resultcache.Fingerprint(name, src, cfg)
			d.mu.Lock()
			d.simTrees[key] = simTree{at: t0, phase: rep.Metrics.Phases}
			d.mu.Unlock()
		}
		return rep, err
	}
}

func (d *daemon) stop() {
	d.cancel()
	<-d.done
	d.client.CloseIdleConnections()
}

func (d *daemon) lookups() uint64 {
	st := &d.cache.Stats
	return st.Hits.Value() + st.DiskHits.Value() + st.Misses.Value() + st.DedupWaits.Value()
}

// reader sends cache-hit GETs spread across the eight programs while
// the writer runs.
func (d *daemon) reader(r *run, s *sample, ref *serveRefs, writing *atomic.Bool, rng *rand.Rand) {
	names := repro.Workloads()
	for writing.Load() {
		d.checkHit(r, names[rng.Intn(len(names))], ref, s)
	}
}

// checkHit GETs one report and checks it byte for byte against the
// golden corpus. With s set, the latency counts as a hit sample.
func (d *daemon) checkHit(r *run, name string, ref *serveRefs, s *sample) {
	sp := r.tracer.begin("bench.hit")
	t0 := time.Now()
	body, hdr, status, err := d.do(http.MethodGet, "/v1/report/"+name, nil)
	lat := time.Since(t0)
	sp.end()
	d.attachServerTrace(sp, hdr, t0)
	if s != nil {
		s.addOp(lat)
	}
	switch {
	case err != nil:
		r.fail("GET report %s: %v", name, err)
	case status != http.StatusOK:
		r.fail("GET report %s: status %d", name, status)
	case hdr.Get("X-Instrep-Stale") != "":
		r.fail("GET report %s: served stale", name)
	case !bytes.Equal(body, ref.reports[name]):
		r.fail("GET report %s: %d bytes differ from the golden report", name, len(body))
	default:
		r.ok()
	}
}

// writer submits one golden grid job at a time, polls it to a terminal
// state, fetches its report and checks its Table 10 values against the
// golden sweep row, until the deadline or every cell has run.
func (d *daemon) writer(r *run, s *sample, ref *serveRefs, deadline time.Time, cells []sweep.Cell, rng *rand.Rand) {
	for _, c := range cells {
		if !time.Now().Before(deadline) {
			return
		}
		sp := r.tracer.begin("bench.job")
		t0 := time.Now()
		err := d.job(sp, c, ref, time.Duration(rng.Int63n(int64(pollEvery))))
		lat := time.Since(t0)
		sp.end()
		if err != nil {
			r.fail("job %s: %v", cellKey(c), err)
		} else {
			r.ok()
		}
		s.mu.Lock()
		s.batches = append(s.batches, lat)
		s.mu.Unlock()
	}
}

// job runs one cell as a job: submit, poll (the first poll after
// phase, then every pollEvery), fetch, check.
func (d *daemon) job(sp *span, c sweep.Cell, ref *serveRefs, phase time.Duration) error {
	spec, err := json.Marshal(jobs.SpecFromConfig(c.Workload, c.Config))
	if err != nil {
		return err
	}
	var doc jobs.Doc
	if err := d.call(sp, "bench.submit", http.MethodPost, "/v1/jobs", spec, http.StatusAccepted, &doc); err != nil {
		return err
	}
	id := doc.ID
	for wait := phase; !doc.State.Terminal(); wait = pollEvery {
		time.Sleep(wait)
		if err := d.call(sp, "bench.poll", http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &doc); err != nil {
			return err
		}
	}
	if doc.State != jobs.StateDone {
		return fmt.Errorf("ended %s: %s", doc.State, doc.Error)
	}
	var rep struct {
		MeasuredInstructions, DynTotal uint64
		ReusePctAll, ReusePctRepeated  float64
		Truncated                      bool
	}
	if err := d.call(sp, "bench.fetch", http.MethodGet, "/v1/jobs/"+id+"/report", nil, http.StatusOK, &rep); err != nil {
		return err
	}
	if sp != nil {
		d.mu.Lock()
		t, ok := d.simTrees[id]
		d.mu.Unlock()
		if ok {
			sp.attach(t.phase, t.at)
		}
	}
	row := ref.grid[cellKey(c)]
	if row == nil {
		return fmt.Errorf("no golden sweep row")
	}
	got := []string{
		strconv.FormatUint(rep.MeasuredInstructions, 10), strconv.FormatUint(rep.DynTotal, 10),
		pct(rep.ReusePctAll), pct(rep.ReusePctRepeated),
	}
	if rep.Truncated || got[0] != row[7] || got[1] != row[8] || got[2] != row[9] || got[3] != row[10] {
		return fmt.Errorf("report %v (truncated %v), golden row %v", got, rep.Truncated, row[7:11])
	}
	return nil
}

// addServerTime adds the server's request handling time, and the part
// of it spent answering job status polls, from its /metrics latency
// histograms to s.
func (d *daemon) addServerTime(s *sample) error {
	data, _, status, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	var doc struct {
		Latency []obs.NamedHistogram `json:"latency"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	for _, h := range doc.Latency {
		s.serverTime += h.Sum
		if h.Name == "server_latency_job_status" {
			s.pollTime += h.Sum
		}
	}
	return nil
}

// pct formats a percentage the way the sweep CSV does.
func pct(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// call makes one request as a child span of sp, checks its status and
// decodes the JSON body into v.
func (d *daemon) call(sp *span, name, method, path string, body []byte, want int, v any) error {
	c := sp.child(name)
	t0 := time.Now()
	data, hdr, status, err := d.do(method, path, body)
	c.end()
	d.attachServerTrace(c, hdr, t0)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

func (d *daemon) do(method, path string, body []byte) ([]byte, http.Header, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.Header, resp.StatusCode, err
}

// attachServerTrace fetches the server's own span tree for a traced
// request (X-Instrep-Trace) and attaches it under sp.
func (d *daemon) attachServerTrace(sp *span, hdr http.Header, at time.Time) {
	if sp == nil || hdr == nil || hdr.Get("X-Instrep-Trace") == "" {
		return
	}
	data, _, status, err := d.do(http.MethodGet, "/debug/traces/"+hdr.Get("X-Instrep-Trace"), nil)
	if err != nil || status != http.StatusOK {
		return
	}
	var doc obs.TraceDoc
	if json.Unmarshal(data, &doc) == nil {
		sp.attach(doc.Spans, at)
	}
}
