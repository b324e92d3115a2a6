package reportserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// JobsConfig enables the async job tier (DESIGN.md §18): measurements
// too expensive for a request timeout are submitted to a journaled,
// crash-durable queue and fetched when done.
type JobsConfig struct {
	// Dir is the journal directory (required). Pair it with
	// Config.Checkpoints so interrupted jobs resume mid-simulation
	// instead of restarting.
	Dir string
	// Retries bounds attempts after the first (0 = jobs.DefaultRetries).
	Retries int
	// Deadline bounds each attempt's wall clock (0 = none).
	Deadline time.Duration
	// Workers is the concurrent job executor count (0 =
	// jobs.DefaultWorkers). The admission gate still applies: job
	// simulations share the same slots as synchronous requests.
	Workers int
	// CheckpointEvery paces job snapshots by retire count (0 =
	// wall-clock pacing).
	CheckpointEvery uint64
	// Backoff is the base retry delay (0 = jobs.DefaultBackoff).
	Backoff time.Duration
}

// OpenJobs attaches the job tier: replays the journal in jc.Dir,
// re-enqueues interrupted work, and starts the workers. Call it after
// New and before Handler/Serve; the /v1/jobs routes only exist once a
// manager is attached. Serve drains the manager — journaling in-flight
// jobs as interrupted — as part of graceful shutdown.
func (s *Server) OpenJobs(jc JobsConfig) error {
	mgr, err := jobs.Open(jobs.Options{
		Dir:             jc.Dir,
		Runner:          s.runner,
		Checkpoints:     s.cfg.Checkpoints,
		CheckpointEvery: jc.CheckpointEvery,
		Retries:         jc.Retries,
		Deadline:        jc.Deadline,
		Workers:         jc.Workers,
		Backoff:         jc.Backoff,
		RunConfig:       s.cfg.RunConfig,
		Registry:        s.reg,
		Log:             s.log,
	})
	if err != nil {
		return err
	}
	s.jobs = mgr
	mgr.Start()
	return nil
}

// jobRoutes mounts the job endpoints (only called with a manager).
func (s *Server) jobRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.instrument("job_submit", true, s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job_status", false, s.handleJobStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.instrument("job_report", true, s.handleJobReport))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job_cancel", false, s.handleJobCancel))
	mux.HandleFunc("GET /debug/jobs", s.instrument("jobs_debug", false, s.handleJobsDebug))
}

// retryAfterHeader attaches a whole-second Retry-After poll hint.
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(d.Seconds()))))
	}
}

// handleJobSubmit accepts a job spec, defaulted from the server's own
// RunConfig so `{"workload":"lzw"}` submits the serving configuration
// for lzw. Identical measurements dedupe onto one job: a fresh job
// answers 202 Accepted, a pre-existing one 200 OK, both with a
// Location pointing at the status endpoint.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec := jobs.SpecFromConfig("", s.cfg.RunConfig)
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.fail(w, r, fmt.Errorf("bad job spec: %w", err), http.StatusBadRequest)
		return
	}
	doc, existing, err := s.jobs.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrDraining):
		s.fail(w, r, err, http.StatusServiceUnavailable)
		return
	case err != nil:
		s.fail(w, r, err, http.StatusBadRequest)
		return
	}
	s.log.Info("job accepted", "id", doc.ID[:12], "existing", existing)
	w.Header().Set("Location", "/v1/jobs/"+doc.ID)
	if existing {
		s.writeJSON(w, doc)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleJobStatus reports a job's state, retry/resume counts, last
// checkpoint, and — while live — a Retry-After poll pacing hint.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	doc, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err, http.StatusNotFound)
		return
	}
	retryAfterHeader(w, doc.RetryAfter(time.Now(), s.cfg.RetryAfter))
	s.writeJSON(w, doc)
}

// handleJobReport serves a done job's canonical report bytes —
// byte-identical to a synchronous /v1/report answer for the same
// measurement, however many crashes and resumes it took. A live job
// answers 202 with its status doc and poll pacing; a failed job 500
// with its recorded error; a canceled job 410.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, err := s.jobs.Status(id)
	if err != nil {
		s.fail(w, r, err, http.StatusNotFound)
		return
	}
	switch doc.State {
	case jobs.StateDone:
		data, err := s.jobs.ReportJSON(r.Context(), id)
		if err != nil {
			s.fail(w, r, err, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case jobs.StateFailed:
		s.fail(w, r, fmt.Errorf("job failed: %s", doc.Error), http.StatusInternalServerError)
	case jobs.StateCanceled:
		s.fail(w, r, errors.New("job canceled"), http.StatusGone)
	default: // queued, running, interrupted: not ready yet
		retryAfterHeader(w, doc.RetryAfter(time.Now(), s.cfg.RetryAfter))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	}
}

// handleJobCancel cancels a queued or running job. Terminal jobs
// answer 409 Conflict with the final state in the body.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	doc, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		s.fail(w, r, err, http.StatusNotFound)
	case errors.Is(err, jobs.ErrTerminal):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	case err != nil:
		s.fail(w, r, err, http.StatusInternalServerError)
	default:
		s.writeJSON(w, doc)
	}
}

// jobsDebugDoc is the /debug/jobs response document.
type jobsDebugDoc struct {
	Count int              `json:"count"`
	Stats []obs.NamedValue `json:"stats"`
	Jobs  []jobs.Doc       `json:"jobs"`
}

// handleJobsDebug lists every job the journal knows, submit-ordered,
// with the manager's counters — the operator view of the durable queue.
func (s *Server) handleJobsDebug(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	s.writeJSON(w, jobsDebugDoc{Count: len(list), Stats: s.jobs.StatValues(), Jobs: list})
}
