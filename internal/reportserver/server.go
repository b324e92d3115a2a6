// Package reportserver serves precomputed repetition measurements
// over HTTP: canonical report JSON, rendered tables, and workload
// metadata, backed by the content-addressed result cache so each
// distinct (workload, config) pair is simulated at most once and then
// served from memory or disk. See DESIGN.md §12.
//
// The server is overload-hardened (DESIGN.md §13): cold simulations
// pass through a bounded admission gate with a short FIFO queue
// (excess load is shed with 503 + Retry-After), workloads that fail
// repeatedly trip a per-workload circuit breaker and fail fast, and —
// when serve-stale is enabled — shed or failed requests are answered
// with the last known-good report under an X-Instrep-Stale header
// instead of an error. /healthz exposes a readiness state machine
// (starting → ready → degraded → draining) so load balancers see
// degradation before collapse.
//
// Endpoints:
//
//	GET /v1/workloads          workload metadata (JSON)
//	GET /v1/report/{workload}  canonical report JSON for one workload
//	GET /v1/tables/{workload}  rendered tables ("all" = every workload;
//	                           ?experiment=table1,fig4 selects a subset)
//	POST /v1/jobs              submit an async measurement job (with
//	                           OpenJobs; idempotent by fingerprint)
//	GET /v1/jobs/{id}          job state, retries, resumes, checkpoint
//	GET /v1/jobs/{id}/report   a done job's canonical report bytes
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET /debug/jobs            every journaled job plus job_* counters
//	GET /healthz               readiness state machine (JSON)
//	GET /metrics               server/cache/overload/health counters and
//	                           request latency histograms (JSON by
//	                           default; Prometheus text exposition when
//	                           the Accept header asks for text/plain or
//	                           openmetrics, or with ?format=prometheus)
//	GET /debug/traces          recent request traces (newest first;
//	                           slow/shed/errored requests always kept)
//	GET /debug/traces/{id}     one trace's span tree with attributes
//	GET /debug/runs            in-flight simulations: workload, phase,
//	                           retired instructions, live retire rate
//
// Every /v1 request carries an X-Instrep-Trace response header naming
// the trace recorded for it (DESIGN.md §14).
package reportserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/resultcache"
)

// DefaultRequestTimeout bounds one request's simulation work when
// Config.RequestTimeout is zero. A cold default-window workload takes
// a couple of seconds, so this is generous; cache hits are instant.
const DefaultRequestTimeout = 2 * time.Minute

// Admission and degradation defaults (Config fields value 0).
const (
	// DefaultQueueDepth is the admission wait-queue bound: deep enough
	// for one cold full-workload sweep behind the running simulations,
	// short enough that queued requests never wait unreasonably.
	DefaultQueueDepth = 8
	// DefaultBreakerThreshold is the consecutive-failure count that
	// opens a workload's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker rejects
	// before admitting a half-open probe.
	DefaultBreakerCooldown = 30 * time.Second
	// DefaultRetryAfter is the back-off hint on shed responses.
	DefaultRetryAfter = 2 * time.Second
	// DefaultSlowTraceThreshold is the request duration past which a
	// trace is pinned to the trace store's always-keep class. A cache
	// hit is microseconds and a cold quick-window simulation tens of
	// milliseconds, so a second means a cold default-window sweep or a
	// queue wait worth looking at.
	DefaultSlowTraceThreshold = time.Second
)

// statusClientClosedRequest is the nonstandard 499 status used when
// the client disconnected before the response.
const statusClientClosedRequest = 499

// shutdownGrace is how long Serve waits for in-flight requests after
// its context is canceled. Request contexts descend from the serve
// context, so cancellation aborts in-flight simulations (the PR 3
// machinery) and drains well inside the grace period.
const shutdownGrace = 10 * time.Second

// Config configures a Server.
type Config struct {
	// RunConfig is the measurement configuration every request is
	// served with (the server's identity: one config, eight workloads,
	// one cache key each).
	RunConfig repro.Config

	// Cache is the result cache (nil = a fresh memory-only cache).
	Cache *resultcache.Cache

	// Checkpoints, when set, makes every simulation crash-resumable:
	// snapshots land in the store keyed by result-cache fingerprint,
	// interrupted runs resume at the next request for the same key,
	// and the store's counters join /metrics under checkpoint_. The
	// CLI wires `serve -checkpoint-dir` here.
	Checkpoints *checkpoint.Store

	// RequestTimeout bounds each request including any simulation it
	// triggers (0 = DefaultRequestTimeout, negative = none).
	RequestTimeout time.Duration

	// MaxConcurrentSims bounds simulations in flight across all
	// requests (0 = GOMAXPROCS, negative = unbounded).
	MaxConcurrentSims int

	// QueueDepth bounds cold requests waiting for a simulation slot
	// before they are shed (0 = DefaultQueueDepth, negative = no
	// queue). Ignored when MaxConcurrentSims is negative.
	QueueDepth int

	// BreakerThreshold is the consecutive simulation failures that
	// open a workload's circuit breaker (0 = DefaultBreakerThreshold,
	// negative = breakers disabled).
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects before a
	// half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration

	// RetryAfter is the Retry-After hint attached to shed responses
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration

	// ServeStale serves the last known-good report (with an
	// X-Instrep-Stale: true header) instead of an error when a
	// request is shed, breaker-rejected, or its simulation fails.
	ServeStale bool

	// TraceStoreSize bounds how many finished request traces are
	// retained per retention class for /debug/traces (0 =
	// obs.DefaultTraceStoreCap).
	TraceStoreSize int

	// SlowTraceThreshold pins traces of requests at least this slow to
	// the always-keep class (0 = DefaultSlowTraceThreshold, negative =
	// never pin by latency). Shed, errored, and disconnected requests
	// are always pinned regardless.
	SlowTraceThreshold time.Duration

	// Log receives request-level log lines (nil = discarded).
	Log *slog.Logger

	// AccessLog, when set, receives one structured line per request
	// (trace ID, method, path, status, outcome, cache tier, queue wait,
	// latency). The CLI wires NewAccessLog here for -access-log.
	AccessLog *slog.Logger

	// Run overrides the per-workload compute function (nil =
	// repro.RunWorkload). Injectable for tests.
	Run func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error)
}

// NewAccessLog returns the JSON access logger for Config.AccessLog: one
// object per line, led by the pinned "ts", "level" and "msg" keys
// (slog's "time" key renamed), then the request fields.
func NewAccessLog(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				a.Key = "ts"
			}
			return a
		},
	}))
}

// Server is the report-serving daemon.
type Server struct {
	cfg       Config
	runner    *repro.Runner
	gate      *overload.Gate
	breakers  *overload.BreakerSet
	names     map[string]bool
	reg       *obs.Registry // server_* counters, gauges, latency histograms
	log       *slog.Logger
	accessLog *slog.Logger
	traces    *obs.TraceStore
	runs      *repro.RunRegistry
	slowTrace time.Duration
	jobs      *jobs.Manager // async job tier (nil until OpenJobs)

	state atomic.Int32 // one of the state* constants

	// staleMu guards lastGood: the most recent complete canonical
	// report bytes per workload, retained independently of cache
	// eviction so degradation always has something to serve.
	staleMu  sync.Mutex
	lastGood map[string][]byte
}

// Base lifecycle states. "degraded" is computed, not stored: the
// server reports it while ready with any breaker open.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
)

// New builds a Server from cfg. The server starts in the "starting"
// readiness state; Serve/ListenAndServe mark it ready once the
// listener is up (embedders driving Handler directly can call
// MarkReady themselves).
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache, _ = resultcache.New(0, "") // memory-only New cannot fail
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	slowTrace := cfg.SlowTraceThreshold
	if slowTrace == 0 {
		slowTrace = DefaultSlowTraceThreshold
	}
	reg := obs.NewRegistry()
	runs := repro.NewRunRegistry()
	// Scope the run path's accounting to this server: truncations and
	// recovered panics land in this registry's health counters, and
	// in-flight runs register for /debug/runs. Explicit settings win.
	if cfg.RunConfig.Health == nil {
		cfg.RunConfig.Health = reg.Health()
	}
	if cfg.RunConfig.Runs == nil {
		cfg.RunConfig.Runs = runs
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard
	}
	if cfg.AccessLog == nil {
		cfg.AccessLog = obs.Discard
	}
	s := &Server{
		cfg:       cfg,
		names:     make(map[string]bool),
		reg:       reg,
		log:       cfg.Log,
		accessLog: cfg.AccessLog,
		traces:    obs.NewTraceStore(cfg.TraceStoreSize),
		runs:      runs,
		slowTrace: slowTrace,
		lastGood:  make(map[string][]byte),
	}
	if cfg.MaxConcurrentSims >= 0 {
		capacity := cfg.MaxConcurrentSims
		if capacity == 0 {
			capacity = runtime.GOMAXPROCS(0)
		}
		depth := cfg.QueueDepth
		if depth == 0 {
			depth = DefaultQueueDepth
		}
		s.gate = overload.NewGate(capacity, depth, cfg.RetryAfter)
		s.reg.GaugeFunc("server_queue_depth", s.gate.Queued)
		s.reg.GaugeFunc("server_sims_inflight", s.gate.InFlight)
	}
	if cfg.BreakerThreshold >= 0 {
		threshold := cfg.BreakerThreshold
		if threshold == 0 {
			threshold = DefaultBreakerThreshold
		}
		cooldown := cfg.BreakerCooldown
		if cooldown == 0 {
			cooldown = DefaultBreakerCooldown
		}
		s.breakers = overload.NewBreakerSet(threshold, cooldown, nil)
		s.reg.GaugeFunc("server_breakers_open", s.breakers.OpenCount)
	}
	s.runner = &repro.Runner{Cache: cfg.Cache, Gate: s.gate, Breakers: s.breakers, Run: cfg.Run}
	if cfg.Checkpoints != nil {
		s.runner.Checkpoint = &repro.CheckpointPolicy{Store: cfg.Checkpoints, Resume: true}
	}
	for _, name := range repro.Workloads() {
		s.names[name] = true
	}
	return s
}

// MarkReady moves a starting server to ready. Serve/ListenAndServe
// call it once the listener is accepting; embedders that mount
// Handler on their own server call it when they are.
func (s *Server) MarkReady() {
	s.state.CompareAndSwap(stateStarting, stateReady)
}

// State returns the readiness state ("starting", "ready", "degraded",
// or "draining"). Degraded means the server is still answering — from
// cache, stale copies, or fresh simulations of healthy workloads —
// but at least one workload's circuit breaker is open.
func (s *Server) State() string {
	switch s.state.Load() {
	case stateDraining:
		return "draining"
	case stateStarting:
		return "starting"
	default:
		if s.breakers != nil && s.breakers.OpenCount() > 0 {
			return "degraded"
		}
		return "ready"
	}
}

// Handler returns the server's route table. The /v1 endpoints are
// traced (each request mints a trace retained in the trace store);
// health, metrics, and debug endpoints are counted but not traced, so
// scrapes and introspection never displace request traces.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("GET /v1/workloads", s.instrument("workloads", true, s.handleWorkloads))
	mux.HandleFunc("GET /v1/report/{workload}", s.instrument("report", true, s.handleReport))
	mux.HandleFunc("GET /v1/tables/{workload}", s.instrument("tables", true, s.handleTables))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", false, s.handleTraces))
	mux.HandleFunc("GET /debug/traces/{id}", s.instrument("trace", false, s.handleTrace))
	mux.HandleFunc("GET /debug/runs", s.instrument("runs", false, s.handleRuns))
	if s.jobs != nil {
		s.jobRoutes(mux)
	}
	return mux
}

// ListenAndServe serves on addr until ctx is canceled, then shuts
// down gracefully (in-flight simulations are canceled through the
// request contexts and their requests drain with an error response).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// Serve is ListenAndServe on an existing listener.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	// Request handling keeps a CPU busy while the server serves, so a
	// simulation here never takes a spare CPU for its observer helper.
	defer core.ClaimCPU()()
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Request contexts descend from ctx so a daemon-level cancel
		// (SIGINT) aborts in-flight simulations immediately.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	s.MarkReady()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.state.Store(stateDraining)
		shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(shctx)
		<-errc // always http.ErrServerClosed after Shutdown
		if s.jobs != nil {
			// Graceful drain of the job tier: in-flight jobs are
			// aborted and journaled as interrupted so the next process
			// resumes them from their last checkpoint.
			s.jobs.Drain()
		}
		if s.log != nil {
			s.log.Info("server stopped", "cause", context.Cause(ctx))
		}
		return err
	}
}

// statusWriter captures the response status so instrument can route
// metrics by outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with a request counter, outcome-routed
// latency histograms, the per-request timeout, and — for traced
// endpoints — the request trace: minted at this edge, announced via
// the X-Instrep-Trace response header, carried down the run path by
// the request context, and stored for /debug/traces when the request
// finishes. Latency is recorded into per-endpoint histograms only for
// ordinary responses: shed/drain 503s land in server_latency_shed and
// client disconnects (499) in server_latency_disconnect plus their own
// counter, so the distributions used for capacity planning reflect
// work actually served.
func (s *Server) instrument(name string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("server_requests_" + name).Inc()
		timeout := s.cfg.RequestTimeout
		if timeout == 0 {
			timeout = DefaultRequestTimeout
		}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(r.Method + " " + r.URL.Path)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
			w.Header().Set("X-Instrep-Trace", tr.ID())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		outcome := outcomeFor(sw.status)
		switch sw.status {
		case statusClientClosedRequest:
			s.reg.Counter("server_requests_client_disconnect").Inc()
			s.reg.Histogram("server_latency_disconnect").Observe(d)
		case http.StatusServiceUnavailable:
			s.reg.Histogram("server_latency_shed").Observe(d)
		default:
			s.reg.Histogram("server_latency_" + name).Observe(d)
		}
		if tr != nil {
			root := tr.Root()
			root.SetAttr("status", sw.status)
			tr.SetOutcome(outcome)
			tr.End()
			// Always-keep: anything that did not end 2xx, plus slow
			// requests, survives floods of healthy traffic.
			keep := outcome != "ok" || (s.slowTrace > 0 && d >= s.slowTrace)
			s.traces.Add(tr, keep)
		}
		s.log.Debug("request", "path", r.URL.Path, "status", sw.status, "ms", d.Milliseconds())
		if s.accessLog.Enabled(r.Context(), slog.LevelInfo) {
			kv := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"outcome", outcome,
				"latency_ns", d.Nanoseconds(),
			}
			if tr != nil {
				kv = append(kv, "trace", tr.ID())
				if tier := tr.Root().Attr("cache_tier"); tier != nil {
					kv = append(kv, "cache_tier", tier)
				}
				if wait := tr.Root().Attr("queue_wait_ns"); wait != nil {
					kv = append(kv, "queue_wait_ns", wait)
				}
			}
			s.accessLog.Info("request", kv...)
		}
	}
}

// outcomeFor classifies a response status for trace retention and the
// access log.
func outcomeFor(status int) string {
	switch {
	case status == statusClientClosedRequest:
		return "disconnect"
	case status == http.StatusServiceUnavailable:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status >= 400:
		return "error"
	default:
		return "ok"
	}
}

// classify maps an error to its HTTP status and, for overload
// rejections, the Retry-After hint.
func classify(err error, fallback int) (status int, retryAfter time.Duration) {
	var shed *overload.ShedError
	var open *overload.BreakerOpenError
	switch {
	case errors.As(err, &shed):
		return http.StatusServiceUnavailable, shed.RetryAfter
	case errors.As(err, &open):
		return http.StatusServiceUnavailable, open.RetryAfter
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, 0
	default:
		return fallback, 0
	}
}

// fail writes an error response, classifying context ends (client
// cancel → 499, deadline → 504) and overload rejections (shed or open
// breaker → 503 with Retry-After).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error, status int) {
	status, retryAfter := classify(err, status)
	if status == http.StatusServiceUnavailable {
		var open *overload.BreakerOpenError
		if errors.As(err, &open) {
			s.reg.Counter("server_breaker_rejected").Inc()
		} else {
			s.reg.Counter("server_shed").Inc()
		}
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
		}
	}
	s.reg.Counter("server_errors").Inc()
	if s.log != nil {
		s.log.Warn("request failed", "path", r.URL.Path, "status", status, "err", err)
	}
	http.Error(w, err.Error(), status)
}

// writeJSON marshals v as indented JSON.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// healthDoc is the /healthz response document.
type healthDoc struct {
	State        string   `json:"state"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
	QueueDepth   int64    `json:"queue_depth"`
	SimsInflight int64    `json:"sims_inflight"`
	JobsQueued   *int64   `json:"jobs_queued,omitempty"`  // job tier only
	JobsRunning  *int64   `json:"jobs_running,omitempty"` // job tier only
}

// handleHealthz serves the readiness state machine: 200 while the
// server can answer (ready or degraded), 503 while it cannot be
// trusted with new traffic (starting or draining). Load balancers
// watching the body see "degraded" — and which workloads tripped it —
// before the process is in real trouble.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthDoc{State: s.State()}
	if s.breakers != nil {
		doc.OpenBreakers = s.breakers.Open()
	}
	if s.gate != nil {
		doc.QueueDepth = s.gate.Queued()
		doc.SimsInflight = s.gate.InFlight()
	}
	if s.jobs != nil {
		var queued, running int64
		for _, v := range s.jobs.StatValues() {
			switch v.Name {
			case "queued":
				queued = v.Value
			case "running":
				running = v.Value
			}
		}
		doc.JobsQueued = &queued
		doc.JobsRunning = &running
	}
	if doc.State == "starting" || doc.State == "draining" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
		return
	}
	s.writeJSON(w, doc)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, repro.WorkloadInfos())
}

// rememberGood retains a complete report's canonical bytes as the
// workload's stale fallback. Truncated partials never qualify.
func (s *Server) rememberGood(rep *repro.Report) {
	if rep == nil || rep.Truncated {
		return
	}
	data, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		return
	}
	s.staleMu.Lock()
	s.lastGood[rep.Benchmark] = data
	s.staleMu.Unlock()
}

// staleFor returns the workload's last known-good canonical bytes.
func (s *Server) staleFor(name string) ([]byte, bool) {
	s.staleMu.Lock()
	defer s.staleMu.Unlock()
	data, ok := s.lastGood[name]
	return data, ok
}

// serveStale answers a failed report request from the stale store
// when degradation allows it. It reports whether it wrote a response.
func (s *Server) serveStale(w http.ResponseWriter, r *http.Request, name string, cause error) bool {
	if !s.cfg.ServeStale || errors.Is(cause, context.Canceled) {
		// No stale response for a client that already hung up.
		return false
	}
	data, ok := s.staleFor(name)
	if !ok {
		return false
	}
	s.reg.Counter("server_stale_served").Inc()
	if s.log != nil {
		s.log.Warn("serving stale", "workload", name, "cause", cause)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Instrep-Stale", "true")
	w.Write(data)
	return true
}

// reports resolves the {workload} path element ("all" or one name)
// into reports via the cache-backed runner.
func (s *Server) reports(r *http.Request) ([]*repro.Report, error) {
	name := r.PathValue("workload")
	if name == "all" {
		reports, err := s.runner.RunAll(r.Context(), s.cfg.RunConfig)
		for _, rep := range reports {
			s.rememberGood(rep)
		}
		return reports, err
	}
	if !s.names[name] {
		return nil, fmt.Errorf("unknown workload %q (have %s, or \"all\")",
			name, strings.Join(repro.Workloads(), ", "))
	}
	rep, err := s.runner.RunWorkload(r.Context(), name, s.cfg.RunConfig)
	if err != nil {
		return nil, err
	}
	s.rememberGood(rep)
	return []*repro.Report{rep}, nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("workload")
	if !s.names[name] {
		s.fail(w, r, fmt.Errorf("unknown workload %q (have %s)",
			name, strings.Join(repro.Workloads(), ", ")), http.StatusNotFound)
		return
	}
	rep, err := s.runner.RunWorkload(r.Context(), name, s.cfg.RunConfig)
	if err != nil {
		// Degradation ladder: a shed, breaker-rejected, or failed
		// request is answered with the last known-good report when
		// serve-stale allows, and with a classified error otherwise.
		if s.serveStale(w, r, name, err) {
			return
		}
		s.fail(w, r, err, http.StatusInternalServerError)
		return
	}
	// Serve the canonical form: byte-identical whether this request
	// simulated or hit the cache (pinned by the golden corpus test).
	data, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		s.fail(w, r, err, http.StatusInternalServerError)
		return
	}
	s.rememberGood(rep)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	// Validate the experiment selection before running anything.
	var experiments []string
	if q := r.URL.Query().Get("experiment"); q != "" && q != "all" {
		valid := make(map[string]bool)
		for _, e := range repro.Experiments() {
			valid[e] = true
		}
		for _, e := range strings.Split(q, ",") {
			e = strings.TrimSpace(e)
			if !valid[e] {
				s.fail(w, r, fmt.Errorf("unknown experiment %q (have %s, or \"all\")",
					e, strings.Join(repro.Experiments(), ", ")), http.StatusBadRequest)
				return
			}
			experiments = append(experiments, e)
		}
	}
	reports, err := s.reports(r)
	if err != nil && len(reports) == 0 {
		status := http.StatusInternalServerError
		if strings.Contains(err.Error(), "unknown workload") {
			status = http.StatusNotFound
		}
		s.fail(w, r, err, status)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err != nil {
		// Fail-soft like the CLI: render the surviving workloads and
		// flag the partial result.
		w.Header().Set("X-Instrep-Partial", "true")
		fmt.Fprintf(w, "# partial result: %v\n\n", err)
	}
	if len(experiments) == 0 {
		fmt.Fprint(w, repro.FormatAll(reports))
		return
	}
	for _, e := range experiments {
		out, ferr := repro.Format(e, reports)
		if ferr != nil {
			fmt.Fprintf(w, "# %s: %v\n", e, ferr)
			continue
		}
		fmt.Fprintln(w, out)
	}
}

// metricsDoc is the /metrics JSON response document.
type metricsDoc struct {
	State        string               `json:"state"`
	Requests     []obs.NamedValue     `json:"requests"`
	Gauges       []obs.NamedValue     `json:"gauges"`
	Latency      []obs.NamedHistogram `json:"latency"`
	Cache        []obs.NamedValue     `json:"cache"`
	Checkpoints  []obs.NamedValue     `json:"checkpoints,omitempty"`
	Jobs         []obs.NamedValue     `json:"jobs,omitempty"`
	Health       []obs.NamedValue     `json:"health"`
	OpenBreakers []string             `json:"open_breakers,omitempty"`
	Workloads    int                  `json:"workloads"`
}

// wantsPrometheus reports whether the request negotiated the
// Prometheus text exposition: an explicit ?format=prometheus, or an
// Accept header asking for text/plain or an OpenMetrics media type
// (what a Prometheus scraper sends). The JSON document stays the
// default so existing clients are untouched.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		extras := []obs.ExtraSection{
			{Prefix: "cache_", Gauge: true, Values: s.cfg.Cache.StatValues()},
			{Prefix: "health_", Values: s.reg.Health().Values()},
		}
		if s.cfg.Checkpoints != nil {
			extras = append(extras, obs.ExtraSection{
				Prefix: "checkpoint_", Gauge: true, Values: s.cfg.Checkpoints.StatValues(),
			})
		}
		if s.jobs != nil {
			extras = append(extras, obs.ExtraSection{
				Prefix: "job_", Gauge: true, Values: s.jobs.StatValues(),
			})
		}
		s.reg.WritePrometheus(w, extras...)
		return
	}
	doc := metricsDoc{
		State:     s.State(),
		Requests:  s.reg.CounterValues(),
		Gauges:    s.reg.GaugeValues(),
		Latency:   s.reg.HistogramValues(),
		Cache:     s.cfg.Cache.StatValues(),
		Health:    s.reg.Health().Values(),
		Workloads: len(s.names),
	}
	if s.cfg.Checkpoints != nil {
		doc.Checkpoints = s.cfg.Checkpoints.StatValues()
	}
	if s.jobs != nil {
		doc.Jobs = s.jobs.StatValues()
	}
	if s.breakers != nil {
		doc.OpenBreakers = s.breakers.Open()
	}
	s.writeJSON(w, doc)
}

// tracesDoc is the /debug/traces response document.
type tracesDoc struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	list := s.traces.List()
	s.writeJSON(w, tracesDoc{Count: len(list), Traces: list})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.traces.Get(id)
	if !ok {
		s.fail(w, r, fmt.Errorf("unknown trace %q", id), http.StatusNotFound)
		return
	}
	s.writeJSON(w, t.Doc())
}

// runsDoc is the /debug/runs response document.
type runsDoc struct {
	Count int             `json:"count"`
	Runs  []repro.RunInfo `json:"runs"`
}

// handleRuns lists the simulations in flight right now: workload,
// phase, retired instructions, and a phase-relative retire rate — the
// live view behind "is the server wedged or just busy".
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	snap := s.runs.Snapshot()
	s.writeJSON(w, runsDoc{Count: len(snap), Runs: snap})
}
