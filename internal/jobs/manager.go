package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Sentinel errors for the API layer to map onto status codes.
var (
	// ErrUnknownJob: no job with that ID (404).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrTerminal: the job already finished; cancel is meaningless (409).
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrNotDone: the report was requested before the job finished (202).
	ErrNotDone = errors.New("jobs: job not done")
	// ErrDraining: the manager is shutting down; no new submissions (503).
	ErrDraining = errors.New("jobs: manager draining")
)

// Defaults, overridable via Options.
const (
	DefaultRetries = 3
	DefaultWorkers = 2
	DefaultBackoff = 500 * time.Millisecond
)

// maxBackoff caps every retry delay.
const maxBackoff = time.Minute

// Options configures a Manager.
type Options struct {
	// Dir is the journal directory (required).
	Dir string
	// Runner executes jobs — the same gated, cached, breaker-guarded
	// runner the synchronous API uses, so jobs respect admission
	// control and fill the shared result cache (required).
	Runner *repro.Runner
	// Checkpoints, when set, makes every attempt crash-resumable: the
	// manager threads a per-job CheckpointPolicy (keyed by the job ID,
	// which IS the result-cache fingerprint) through the run so a
	// re-enqueued job continues from its last ICKP snapshot.
	Checkpoints *checkpoint.Store
	// CheckpointEvery paces snapshots by retire count (0 = wall-clock
	// default pacing; see core.CheckpointPolicy.Every).
	CheckpointEvery uint64
	// Retries bounds attempts after the first: a job runs at most
	// 1+Retries times (0 = DefaultRetries; negative = no retries).
	Retries int
	// Deadline bounds each attempt's wall clock (0 = none). A blown
	// deadline is transient — the next attempt resumes from the last
	// checkpoint, so bounded retries still make forward progress.
	Deadline time.Duration
	// Workers is the number of concurrent job executors (0 =
	// DefaultWorkers). The Runner's Gate still applies underneath.
	Workers int
	// Backoff shapes the retry schedule: Backoff·2^(attempt-1) ±25%
	// jitter, capped at one minute (0 = DefaultBackoff).
	Backoff time.Duration
	// RunConfig is the serving process's run configuration. Every
	// attempt, and every ReportJSON recompute, runs a copy of it with
	// the spec's measurement fields written over it (Spec.Config), so
	// jobs get the same execution shaping — timeout, watchdog,
	// dispatch path, health counters, run registry — as the server's
	// synchronous requests.
	RunConfig core.Config
	// Log receives job lifecycle lines (nil = discarded).
	Log *slog.Logger

	// now is the clock; tests replace it to pin backoff schedules.
	now func() time.Time
}

// Stats are the manager's counters, exported on /metrics under the
// job_ prefix via StatValues.
type Stats struct {
	Submitted   obs.Counter // new jobs accepted (including resubmits of failed jobs)
	Deduped     obs.Counter // submissions answered by an existing live/done job
	Done        obs.Counter // jobs finished successfully
	Failed      obs.Counter // jobs failed permanently (classification or retries exhausted)
	Retried     obs.Counter // transient failures re-enqueued with backoff
	Resumed     obs.Counter // attempts that restored a checkpoint snapshot
	Replayed    obs.Counter // jobs done by replaying a sibling's census verdicts
	Canceled    obs.Counter // jobs canceled via the API
	Interrupted obs.Counter // jobs journaled as interrupted during drain
	Recovered   obs.Counter // jobs re-enqueued by journal replay at startup
}

// job is the in-memory state alongside the journaled Record.
type job struct {
	rec Record
	// nextRunMS is the earliest dispatch time (unix ms) — the backoff
	// deadline after a transient failure; 0 = immediately eligible.
	nextRunMS int64
	// canceled marks a cancel request that raced a running attempt.
	canceled bool
	// cancelAttempt aborts the in-flight attempt (nil when not running).
	cancelAttempt context.CancelFunc
	// Newest checkpoint snapshot seen this process, for the status doc.
	ckptRetired uint64
	ckptAtMS    int64
	// replayed marks a last attempt that replayed a sibling's census
	// verdicts (this process only; it is not journaled).
	replayed bool
}

// Manager is the crash-durable job tier: a journal-backed queue of
// measurement jobs executed through the shared Runner with retries,
// backoff, and checkpoint resume. Open it, then Start it; Drain stops
// it, journaling in-flight work as interrupted so the next process
// finishes it.
type Manager struct {
	opts  Options
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup
	wake  chan struct{}
	rng   *rand.Rand // jitter; guarded by mu
	Stats Stats

	// replay groups every attempt and every ReportJSON recompute, so a
	// job that differs from an earlier one only in the reuse buffer
	// replays that job's census verdicts (core.ReplayGroups).
	replay *core.ReplayGroups

	mu       sync.Mutex
	journal  *Journal
	jobs     map[string]*job
	seq      uint64
	draining bool
}

// Open replays the journal in opts.Dir and returns a manager holding
// the surviving jobs: queued, running, and interrupted records are
// re-enqueued (the work is incomplete by definition — a clean finish
// would have journaled a terminal state), terminal records are kept
// for status/report queries. Call Start to begin executing.
func Open(opts Options) (*Manager, error) {
	if opts.Runner == nil {
		return nil, errors.New("jobs: Options.Runner is required")
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.Log == nil {
		opts.Log = obs.Discard
	}
	journal, live, err := OpenJournal(opts.Dir)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		opts:    opts,
		ctx:     ctx,
		stop:    stop,
		wake:    make(chan struct{}, 1),
		rng:     rand.New(rand.NewSource(opts.now().UnixNano())),
		replay:  core.NewReplayGroups(),
		journal: journal,
		jobs:    make(map[string]*job, len(live)),
	}
	for _, rec := range live {
		if rec.Seq >= m.seq {
			m.seq = rec.Seq + 1
		}
		j := &job{rec: rec}
		switch rec.State {
		case StateRunning, StateInterrupted, StateQueued:
			// Incomplete work from the previous process: run it again.
			// The checkpoint store (same ID = same key) turns "again"
			// into "from the last snapshot".
			if rec.State != StateQueued {
				j.rec.State = StateQueued
				j.rec.UpdatedMS = m.nowMS()
				if err := journal.Append(j.rec); err != nil {
					journal.Close()
					stop()
					return nil, err
				}
			}
			m.Stats.Recovered.Inc()
			m.opts.Log.Info("job recovered from journal",
				"id", short(rec.ID), "workload", rec.Spec.Workload, "was", string(rec.State))
		}
		m.jobs[rec.ID] = j
	}
	return m, nil
}

// Start launches the worker pool. Idempotent per manager lifetime.
func (m *Manager) Start() {
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.signal()
}

// Drain stops accepting work, aborts in-flight attempts, journals
// them as interrupted, waits for the workers, and closes the journal.
// After Drain the journal is a complete, durable statement of what
// the next process must finish.
func (m *Manager) Drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	m.mu.Unlock()
	m.stop() // cancels every attempt ctx; complete() sees draining
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	// Queued jobs that never got an attempt are already durable as
	// queued; only journal a state change for ones we know nothing new
	// about. Close flushes nothing (appends are fsynced) but releases
	// the file.
	m.journal.Close()
	m.opts.Log.Info("job manager drained", "jobs", len(m.jobs))
}

// Submit registers a job for the spec, idempotently: an identical
// measurement (same fingerprint) that is queued, running, or done is
// returned as-is; a failed or canceled one is re-enqueued fresh.
// existing reports whether the returned job predates this call.
func (m *Manager) Submit(spec Spec) (Doc, bool, error) {
	id, err := spec.Validate()
	if err != nil {
		return Doc{}, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Doc{}, false, ErrDraining
	}
	now := m.nowMS()
	if j, ok := m.jobs[id]; ok {
		if !j.rec.State.Terminal() || j.rec.State == StateDone {
			m.Stats.Deduped.Inc()
			return m.docLocked(j), true, nil
		}
		// failed or canceled: resubmit restarts it from scratch
		// (modulo any checkpoint snapshot, which is a pure bonus).
		j.rec.State = StateQueued
		j.rec.Retries = 0
		j.rec.Resumes = 0
		j.rec.Error = ""
		j.rec.Seq = m.seq
		j.rec.SubmittedMS = now
		j.rec.UpdatedMS = now
		j.nextRunMS = 0
		j.canceled = false
		m.seq++
		if err := m.journal.Append(j.rec); err != nil {
			return Doc{}, false, err
		}
		m.Stats.Submitted.Inc()
		m.opts.Log.Info("job resubmitted", "id", short(id), "workload", spec.Workload)
		m.signal()
		return m.docLocked(j), false, nil
	}
	j := &job{rec: Record{
		ID:          id,
		Seq:         m.seq,
		Spec:        spec,
		State:       StateQueued,
		SubmittedMS: now,
		UpdatedMS:   now,
	}}
	m.seq++
	if err := m.journal.Append(j.rec); err != nil {
		return Doc{}, false, err
	}
	m.jobs[id] = j
	m.Stats.Submitted.Inc()
	m.opts.Log.Info("job submitted", "id", short(id), "workload", spec.Workload,
		"skip", spec.Skip, "measure", spec.Measure)
	m.signal()
	return m.docLocked(j), false, nil
}

// Status returns the job's API view.
func (m *Manager) Status(id string) (Doc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Doc{}, ErrUnknownJob
	}
	return m.docLocked(j), nil
}

// List returns every job, submit-ordered.
func (m *Manager) List() []Doc {
	m.mu.Lock()
	defer m.mu.Unlock()
	docs := make([]Doc, 0, len(m.jobs))
	for _, j := range m.jobs {
		docs = append(docs, m.docLocked(j))
	}
	sort.Slice(docs, func(a, b int) bool {
		if docs[a].SubmittedMS != docs[b].SubmittedMS {
			return docs[a].SubmittedMS < docs[b].SubmittedMS
		}
		return docs[a].ID < docs[b].ID
	})
	return docs
}

// Cancel stops a job: a queued one is journaled canceled immediately,
// a running one has its attempt aborted (the worker journals the
// cancellation when the run unwinds). Terminal jobs return
// ErrTerminal.
func (m *Manager) Cancel(id string) (Doc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Doc{}, ErrUnknownJob
	}
	switch {
	case j.rec.State.Terminal():
		return m.docLocked(j), ErrTerminal
	case j.rec.State == StateRunning:
		j.canceled = true
		if j.cancelAttempt != nil {
			j.cancelAttempt()
		}
		return m.docLocked(j), nil
	default: // queued / interrupted
		j.rec.State = StateCanceled
		j.rec.UpdatedMS = m.nowMS()
		m.journal.Append(j.rec)
		m.Stats.Canceled.Inc()
		m.opts.Log.Info("job canceled", "id", short(id))
		return m.docLocked(j), nil
	}
}

// ReportJSON returns the canonical report bytes for a done job. The
// bytes come from the Runner's ReportJSON under the job's attempt
// configuration — normally a pure cache hit, served as the cache's own
// read-only slice; if the cache entry was evicted the deterministic
// simulator rebuilds byte-identical output (resuming from any
// surviving checkpoint).
func (m *Manager) ReportJSON(ctx context.Context, id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if j.rec.State != StateDone {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: job is %s", ErrNotDone, j.rec.State)
	}
	spec := j.rec.Spec
	m.mu.Unlock()
	cfg, err := spec.Config(m.opts.RunConfig)
	if err != nil {
		return nil, err
	}
	return m.opts.Runner.ReportJSON(core.WithReplayGroups(ctx, m.replay), spec.Workload, cfg)
}

// StatValues snapshots every manager counter plus the live queue
// gauges, name-sorted, for the server's /metrics document.
func (m *Manager) StatValues() []obs.NamedValue {
	m.mu.Lock()
	var queued, running int64
	for _, j := range m.jobs {
		switch j.rec.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	m.mu.Unlock()
	return []obs.NamedValue{
		{Name: "canceled", Value: int64(m.Stats.Canceled.Value())},
		{Name: "deduped", Value: int64(m.Stats.Deduped.Value())},
		{Name: "done", Value: int64(m.Stats.Done.Value())},
		{Name: "failed", Value: int64(m.Stats.Failed.Value())},
		{Name: "interrupted", Value: int64(m.Stats.Interrupted.Value())},
		{Name: "journal_appends", Value: int64(m.journal.Stats.Appends.Value())},
		{Name: "journal_compactions", Value: int64(m.journal.Stats.Compactions.Value())},
		{Name: "journal_replayed", Value: int64(m.journal.Stats.Replayed.Value())},
		{Name: "journal_tmp_scrubbed", Value: int64(m.journal.Stats.TmpScrubbed.Value())},
		{Name: "journal_torn_dropped", Value: int64(m.journal.Stats.TornDropped.Value())},
		{Name: "queued", Value: queued},
		{Name: "recovered", Value: int64(m.Stats.Recovered.Value())},
		{Name: "replayed", Value: int64(m.Stats.Replayed.Value())},
		{Name: "resumed", Value: int64(m.Stats.Resumed.Value())},
		{Name: "retried", Value: int64(m.Stats.Retried.Value())},
		{Name: "running", Value: running},
		{Name: "submitted", Value: int64(m.Stats.Submitted.Value())},
	}
}

// ---- dispatch ----

// worker executes jobs until the manager stops: claim the oldest
// eligible queued job, run one attempt, classify, repeat.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// next blocks until a queued job is eligible (its backoff deadline
// passed) or the manager stops, claiming the job by marking and
// journaling it running. Claims cascade: after taking one job it
// re-signals so sibling workers re-check the queue.
func (m *Manager) next() *job {
	for {
		m.mu.Lock()
		now := m.nowMS()
		var best *job
		earliest := int64(math.MaxInt64)
		for _, j := range m.jobs {
			if j.rec.State != StateQueued {
				continue
			}
			if j.nextRunMS > now {
				if j.nextRunMS < earliest {
					earliest = j.nextRunMS
				}
				continue
			}
			if best == nil || j.rec.Seq < best.rec.Seq {
				best = j
			}
		}
		if best != nil {
			best.rec.State = StateRunning
			best.rec.UpdatedMS = now
			m.journal.Append(best.rec)
			m.mu.Unlock()
			m.signal() // there may be more eligible jobs for other workers
			return best
		}
		m.mu.Unlock()
		var backoffTimer *time.Timer
		var fire <-chan time.Time
		if earliest != math.MaxInt64 {
			backoffTimer = time.NewTimer(time.Duration(earliest-now) * time.Millisecond)
			fire = backoffTimer.C
		}
		select {
		case <-m.ctx.Done():
			if backoffTimer != nil {
				backoffTimer.Stop()
			}
			return nil
		case <-m.wake:
		case <-fire:
		}
		if backoffTimer != nil {
			backoffTimer.Stop()
		}
	}
}

// runJob executes one attempt and routes the outcome through complete.
func (m *Manager) runJob(j *job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if m.opts.Deadline > 0 {
		ctx, cancel = context.WithTimeout(m.ctx, m.opts.Deadline)
	} else {
		ctx, cancel = context.WithCancel(m.ctx)
	}
	defer cancel()
	m.mu.Lock()
	j.cancelAttempt = cancel
	alreadyCanceled := j.canceled
	rec := j.rec
	m.mu.Unlock()
	if alreadyCanceled {
		m.complete(j, context.Canceled, false)
		return
	}

	cfg, err := rec.Spec.Config(m.opts.RunConfig)
	if err != nil {
		// Submit rejects such a spec, so only a journal an older build
		// wrote holds one. It can never run: fail it for good, without
		// spending the retry budget or reaching the breaker.
		m.complete(j, &minic.Error{Msg: err.Error()}, false)
		return
	}
	if m.opts.Checkpoints != nil {
		cfg.Checkpoint = &core.CheckpointPolicy{
			Store:  m.opts.Checkpoints,
			Key:    rec.ID,
			Every:  m.opts.CheckpointEvery,
			Resume: true,
			Notify: func(ev core.CheckpointEvent) { m.onCheckpoint(j, ev) },
		}
	}

	span, ctx := obs.StartSpanCtx(core.WithReplayGroups(ctx, m.replay), "job")
	span.SetAttr("id", short(rec.ID))
	span.SetAttr("attempt", rec.Retries+1)
	rep, err := m.opts.Runner.RunWorkload(ctx, rec.Spec.Workload, cfg)
	span.End()
	m.complete(j, err, err == nil && rep != nil && rep.Metrics != nil && rep.Metrics.ExecPath == obs.ExecReplay)
}

// onCheckpoint tracks resume/snapshot events for the status doc and
// the job_resumed counter; resumes are journaled so a crash-resumed
// job's history survives yet another crash.
func (m *Manager) onCheckpoint(j *job, ev core.CheckpointEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.ckptRetired = ev.Retired
	j.ckptAtMS = m.nowMS()
	if ev.Resumed {
		j.rec.Resumes++
		j.rec.UpdatedMS = m.nowMS()
		m.journal.Append(j.rec)
		m.Stats.Resumed.Inc()
		m.opts.Log.Info("job resumed from checkpoint",
			"id", short(j.rec.ID), "retired", ev.Retired, "phase", ev.Phase)
	}
}

// complete classifies an attempt's outcome and journals the
// transition; replayed says the attempt replayed a sibling's census
// verdicts. Order matters: success first, then the explicit
// cancel/drain interruptions (the run unwinds with context.Canceled
// for both, so intent disambiguates), then permanent failures, then
// the bounded-retry budget.
func (m *Manager) complete(j *job, err error, replayed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancelAttempt = nil
	j.replayed = replayed
	now := m.nowMS()
	j.rec.UpdatedMS = now
	switch {
	case err == nil:
		j.rec.State = StateDone
		j.rec.Error = ""
		m.Stats.Done.Inc()
		if replayed {
			m.Stats.Replayed.Inc()
		}
		m.opts.Log.Info("job done", "id", short(j.rec.ID),
			"retries", j.rec.Retries, "resumes", j.rec.Resumes)
	case j.canceled:
		j.rec.State = StateCanceled
		j.rec.Error = "canceled"
		m.Stats.Canceled.Inc()
		m.opts.Log.Info("job canceled", "id", short(j.rec.ID))
	case m.isDraining():
		// Shutdown aborted the attempt. Journal the honest state: the
		// work is interrupted, and the next process must finish it.
		j.rec.State = StateInterrupted
		j.rec.Error = ""
		m.Stats.Interrupted.Inc()
		m.opts.Log.Info("job interrupted by drain", "id", short(j.rec.ID))
	case permanent(err):
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
		m.Stats.Failed.Inc()
		m.opts.Log.Warn("job failed permanently", "id", short(j.rec.ID), "err", err.Error())
	case j.rec.Retries >= m.opts.Retries:
		j.rec.State = StateFailed
		j.rec.Error = fmt.Sprintf("retries exhausted (%d): %s", j.rec.Retries, err)
		m.Stats.Failed.Inc()
		m.opts.Log.Warn("job failed, retries exhausted",
			"id", short(j.rec.ID), "retries", j.rec.Retries, "err", err.Error())
	default:
		j.rec.Retries++
		j.rec.State = StateQueued
		j.rec.Error = err.Error()
		j.nextRunMS = now + m.backoffMS(j.rec.Retries)
		m.Stats.Retried.Inc()
		m.opts.Log.Info("job retry scheduled", "id", short(j.rec.ID),
			"attempt", j.rec.Retries+1, "backoff_ms", j.nextRunMS-now, "err", err.Error())
	}
	m.journal.Append(j.rec)
	m.signal()
}

// permanent reports whether the error can never succeed on retry.
// Compile errors are deterministic — the same source fails the same
// way forever. Everything else (timeout, watchdog, panic, shed, open
// breaker, sim fault) is presumed transient: the environment, load,
// or kill point may differ next attempt, and with checkpoints each
// retry starts further along than the last.
func permanent(err error) bool {
	var compileErr *minic.Error
	return errors.As(err, &compileErr)
}

// backoffMS is the retry delay in ms for the n-th retry (n ≥ 1):
// Backoff·2^(n-1), ±25% jitter, capped at maxBackoff. Jitter
// spreads the thundering herd of jobs re-enqueued together by a drain.
func (m *Manager) backoffMS(n int) int64 {
	d := m.opts.Backoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	jitter := m.rng.Int63n(ms/2+1) - ms/4 // ±25%
	return ms + jitter
}

func (m *Manager) isDraining() bool { return m.draining }

func (m *Manager) nowMS() int64 { return m.opts.now().UnixMilli() }

// signal nudges one sleeping worker; claims cascade further signals.
func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// docLocked renders a job's API view. Caller holds m.mu.
func (m *Manager) docLocked(j *job) Doc {
	d := Doc{
		ID:          j.rec.ID,
		Spec:        j.rec.Spec,
		State:       j.rec.State,
		Retries:     j.rec.Retries,
		Resumes:     j.rec.Resumes,
		Error:       j.rec.Error,
		SubmittedMS: j.rec.SubmittedMS,
		UpdatedMS:   j.rec.UpdatedMS,
		Replayed:    j.replayed,
	}
	if j.rec.State == StateQueued && j.nextRunMS > 0 {
		d.NextRetryMS = j.nextRunMS
	}
	if j.ckptAtMS != 0 {
		d.Checkpoint = &CheckpointInfo{
			Retired: j.ckptRetired,
			AgeMS:   m.nowMS() - j.ckptAtMS,
		}
	}
	return d
}

// short abbreviates a fingerprint for log lines.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
