package jobs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/reuse"
)

// testSpec is a valid tiny job spec (the workload must exist; the
// window is irrelevant to fake-runner tests).
func testSpec() Spec { return Spec{Workload: "lzw", Skip: 100, Measure: 1000} }

// fakeRunner builds a Runner whose compute step is the given func —
// the same injection point the server tests use.
func fakeRunner(run func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error)) *repro.Runner {
	return &repro.Runner{Run: run}
}

func openManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.Dir = dir
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State) Doc {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		doc, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.State == want {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s (doc %+v)", short(id), doc.State, want, doc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerRunsJobToDone(t *testing.T) {
	var runs atomic.Int64
	m := openManager(t, t.TempDir(), Options{
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			runs.Add(1)
			return &repro.Report{}, nil
		}),
	})
	defer m.Drain()
	m.Start()
	doc, existing, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Error("fresh submit reported existing")
	}
	doc = waitState(t, m, doc.ID, StateDone)
	if doc.Retries != 0 || runs.Load() != 1 {
		t.Errorf("done after %d runs with %d retries, want 1/0", runs.Load(), doc.Retries)
	}
	if m.Stats.Done.Value() != 1 || m.Stats.Submitted.Value() != 1 {
		t.Errorf("counters: done=%d submitted=%d", m.Stats.Done.Value(), m.Stats.Submitted.Value())
	}
}

func TestSubmitIdempotent(t *testing.T) {
	release := make(chan struct{})
	m := openManager(t, t.TempDir(), Options{
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			select {
			case <-release:
				return &repro.Report{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	defer m.Drain()
	m.Start()
	first, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	// Same measurement → same fingerprint → same job, while running...
	dup, existing, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !existing || dup.ID != first.ID {
		t.Errorf("duplicate submit: existing=%v id=%s, want true/%s", existing, dup.ID, first.ID)
	}
	// ...and still the same job once done.
	close(release)
	waitState(t, m, first.ID, StateDone)
	dup, existing, err = m.Submit(testSpec())
	if err != nil || !existing || dup.State != StateDone {
		t.Errorf("post-done submit: existing=%v state=%s err=%v", existing, dup.State, err)
	}
	// A different measurement is a different job.
	other := testSpec()
	other.Measure = 2000
	doc, existing, err := m.Submit(other)
	if err != nil || existing || doc.ID == first.ID {
		t.Errorf("distinct spec: existing=%v sameID=%v err=%v", existing, doc.ID == first.ID, err)
	}
	if m.Stats.Deduped.Value() != 2 {
		t.Errorf("deduped = %d, want 2", m.Stats.Deduped.Value())
	}
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	var runs atomic.Int64
	m := openManager(t, t.TempDir(), Options{
		Retries: 3,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			if runs.Add(1) <= 2 {
				return nil, &core.TimeoutError{}
			}
			return &repro.Report{}, nil
		}),
	})
	defer m.Drain()
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	doc = waitState(t, m, doc.ID, StateDone)
	if doc.Retries != 2 || runs.Load() != 3 {
		t.Errorf("done after %d runs with %d retries, want 3/2", runs.Load(), doc.Retries)
	}
	if m.Stats.Retried.Value() != 2 {
		t.Errorf("retried = %d, want 2", m.Stats.Retried.Value())
	}
}

func TestPermanentFailureNeverRetries(t *testing.T) {
	var runs atomic.Int64
	m := openManager(t, t.TempDir(), Options{
		Retries: 5,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			runs.Add(1)
			return nil, &minic.Error{Line: 3, Msg: "undefined variable"}
		}),
	})
	defer m.Drain()
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	doc = waitState(t, m, doc.ID, StateFailed)
	if runs.Load() != 1 || doc.Retries != 0 {
		t.Errorf("compile error ran %d times with %d retries, want 1/0", runs.Load(), doc.Retries)
	}
	if !strings.Contains(doc.Error, "undefined variable") {
		t.Errorf("doc.Error = %q, want the compile error", doc.Error)
	}
}

func TestRetriesExhausted(t *testing.T) {
	var runs atomic.Int64
	m := openManager(t, t.TempDir(), Options{
		Retries: 2,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			runs.Add(1)
			return nil, errors.New("flaky")
		}),
	})
	defer m.Drain()
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	doc = waitState(t, m, doc.ID, StateFailed)
	if runs.Load() != 3 { // 1 attempt + 2 retries
		t.Errorf("ran %d times, want 3", runs.Load())
	}
	if !strings.Contains(doc.Error, "retries exhausted") {
		t.Errorf("doc.Error = %q, want retries-exhausted", doc.Error)
	}

	// A failed job can be resubmitted and gets a fresh retry budget.
	runs.Store(0)
	doc2, existing, err := m.Submit(testSpec())
	if err != nil || existing {
		t.Fatalf("resubmit: existing=%v err=%v", existing, err)
	}
	waitState(t, m, doc2.ID, StateFailed)
	if runs.Load() != 3 {
		t.Errorf("resubmit ran %d times, want 3", runs.Load())
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	m := openManager(t, t.TempDir(), Options{
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	defer m.Drain()
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(doc.ID); err != nil {
		t.Fatal(err)
	}
	doc = waitState(t, m, doc.ID, StateCanceled)
	// Canceled is terminal: cancel again is a conflict...
	if _, err := m.Cancel(doc.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second cancel err = %v, want ErrTerminal", err)
	}
	// ...and the report is unavailable.
	if _, err := m.ReportJSON(context.Background(), doc.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("report of canceled job err = %v, want ErrNotDone", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	m := openManager(t, t.TempDir(), Options{
		Workers: 1,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			select {
			case <-release:
				return &repro.Report{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	defer m.Drain()
	m.Start()
	blocker, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queuedSpec := testSpec()
	queuedSpec.Measure = 2000
	queued, _, err := m.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err := m.Cancel(queued.ID); err != nil || doc.State != StateCanceled {
		t.Fatalf("cancel queued: state=%s err=%v", doc.State, err)
	}
	close(release)
	waitState(t, m, blocker.ID, StateDone)
}

func TestDrainJournalsInterruptedAndRecoveryFinishes(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	m := openManager(t, dir, Options{
		Workers: 1,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.Drain()
	if got, _ := m.Status(doc.ID); got.State != StateInterrupted {
		t.Fatalf("after drain job is %s, want interrupted", got.State)
	}
	if m.Stats.Interrupted.Value() != 1 {
		t.Errorf("interrupted = %d, want 1", m.Stats.Interrupted.Value())
	}
	if _, _, err := m.Submit(testSpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain err = %v, want ErrDraining", err)
	}

	// The next process replays the journal and finishes the work.
	var runs atomic.Int64
	m2 := openManager(t, dir, Options{
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			runs.Add(1)
			return &repro.Report{}, nil
		}),
	})
	defer m2.Drain()
	if m2.Stats.Recovered.Value() != 1 {
		t.Fatalf("recovered = %d, want 1", m2.Stats.Recovered.Value())
	}
	m2.Start()
	got := waitState(t, m2, doc.ID, StateDone)
	if runs.Load() != 1 || got.ID != doc.ID {
		t.Errorf("recovery ran %d times for %s", runs.Load(), short(got.ID))
	}
}

func TestCheckpointResumeCountsAndStatus(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir + "/ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// The fake run emits the same Notify events core.Run would: one
	// resume at startup, one snapshot write later.
	m := openManager(t, dir+"/jobs", Options{
		Checkpoints:     store,
		CheckpointEvery: 1000,
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			ck := cfg.Checkpoint
			if ck == nil || ck.Store != store || !ck.Resume || ck.Every != 1000 {
				t.Errorf("job ran without the expected checkpoint policy: %+v", ck)
			} else if ck.Key == "" {
				t.Error("checkpoint key is empty, want the job fingerprint")
			} else {
				ck.Notify(core.CheckpointEvent{Benchmark: name, Resumed: true, Retired: 5000})
				ck.Notify(core.CheckpointEvent{Benchmark: name, Retired: 9000, Bytes: 128})
			}
			return &repro.Report{}, nil
		}),
	})
	defer m.Drain()
	m.Start()
	doc, _, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	doc = waitState(t, m, doc.ID, StateDone)
	if doc.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", doc.Resumes)
	}
	if doc.Checkpoint == nil || doc.Checkpoint.Retired != 9000 {
		t.Errorf("checkpoint info = %+v, want retired 9000", doc.Checkpoint)
	}
	if m.Stats.Resumed.Value() != 1 {
		t.Errorf("resumed counter = %d, want 1", m.Stats.Resumed.Value())
	}
}

func TestUnknownWorkloadRejectedAtSubmit(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Runner: &repro.Runner{}})
	defer m.Drain()
	if _, _, err := m.Submit(Spec{Workload: "nope", Measure: 1}); err == nil {
		t.Fatal("submit of unknown workload succeeded")
	}
	if _, err := m.Status("feedc0de"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("status of unknown id err = %v, want ErrUnknownJob", err)
	}
}

func TestReportJSONEndToEnd(t *testing.T) {
	// Real runner, tiny window: the async-job answer must be
	// byte-identical to a direct synchronous run.
	m := openManager(t, t.TempDir(), Options{Runner: &repro.Runner{}})
	defer m.Drain()
	m.Start()
	spec := Spec{Workload: "lzw", Skip: 1000, Measure: 20000}
	doc, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, doc.ID, StateDone)
	got, err := m.ReportJSON(context.Background(), doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.RunWorkload(context.Background(), spec.Workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("job report differs from direct run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestListAndStatValues(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			return &repro.Report{}, nil
		}),
	})
	defer m.Drain()
	m.Start()
	a, _, _ := m.Submit(testSpec())
	specB := testSpec()
	specB.Measure = 2000
	b, _, _ := m.Submit(specB)
	waitState(t, m, a.ID, StateDone)
	waitState(t, m, b.ID, StateDone)
	docs := m.List()
	if len(docs) != 2 {
		t.Fatalf("List returned %d docs, want 2", len(docs))
	}
	vals := m.StatValues()
	byName := map[string]int64{}
	for _, v := range vals {
		byName[v.Name] = v.Value
	}
	if byName["done"] != 2 || byName["submitted"] != 2 || byName["queued"] != 0 {
		t.Errorf("StatValues = %v", byName)
	}
	if byName["journal_appends"] < 4 { // ≥ 2 submits + 2 transitions each
		t.Errorf("journal_appends = %d, want ≥ 4", byName["journal_appends"])
	}
}

func TestDocRetryAfter(t *testing.T) {
	now := time.Now()
	terminal := Doc{State: StateDone}
	if got := terminal.RetryAfter(now, time.Second); got != 0 {
		t.Errorf("terminal RetryAfter = %v, want 0", got)
	}
	running := Doc{State: StateRunning}
	if got := running.RetryAfter(now, time.Second); got != time.Second {
		t.Errorf("running RetryAfter = %v, want 1s", got)
	}
	backedOff := Doc{State: StateQueued, NextRetryMS: now.Add(5 * time.Second).UnixMilli()}
	if got := backedOff.RetryAfter(now, time.Second); got < 4*time.Second {
		t.Errorf("backed-off RetryAfter = %v, want ~5s", got)
	}
}

func TestSpecConfigRoundTrip(t *testing.T) {
	cfg := core.Config{
		SkipInstructions:    5,
		MeasureInstructions: 10,
		ReuseEntries:        256,
		ReuseAssoc:          2,
		DisableVPred:        true,
	}
	spec := SpecFromConfig("lzw", cfg)
	// The spec's fields overwrite every measurement field of the base
	// and leave its execution shaping alone.
	base := core.Config{
		MeasureInstructions: 99,
		ReusePolicy:         reuse.FIFO,
		DisableTaint:        true,
		Timeout:             time.Minute,
		WatchdogInterval:    time.Second,
	}
	back, err := spec.Config(base)
	if err != nil {
		t.Fatal(err)
	}
	if back.MeasurementKey() != cfg.MeasurementKey() {
		t.Errorf("round trip changed the measurement key:\n  %s\n  %s",
			cfg.MeasurementKey(), back.MeasurementKey())
	}
	if back.Timeout != base.Timeout || back.WatchdogInterval != base.WatchdogInterval {
		t.Errorf("overlay dropped the base's execution shaping: %+v", back)
	}
	if _, err := (Spec{Workload: "lzw", ReusePolicy: "bogus"}).Validate(); err == nil {
		t.Error("bogus reuse policy validated")
	}
}

func TestManagerLogsLifecycle(t *testing.T) {
	var buf bytes.Buffer
	m := openManager(t, t.TempDir(), Options{
		Log: slog.New(slog.NewTextHandler(&buf, nil)),
		Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			return &repro.Report{}, nil
		}),
	})
	m.Start()
	doc, _, _ := m.Submit(testSpec())
	waitState(t, m, doc.ID, StateDone)
	m.Drain()
	out := buf.String()
	for _, want := range []string{"job submitted", "job done", "job manager drained"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}

// TestInvalidConfigRejectedAtSubmit: a spec whose measurement fields
// core.Config.Validate rejects is a Submit error, so nothing is
// journaled and nothing runs.
func TestInvalidConfigRejectedAtSubmit(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	m := openManager(t, dir, Options{Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		runs.Add(1)
		return nil, errors.New("a rejected spec ran")
	})})
	m.Start()
	for _, spec := range []Spec{
		{Workload: "lzw", ReuseAssoc: -1},
		{Workload: "lzw", ReuseAssoc: 1_000_000_000},
		{Workload: "lzw", ReuseEntries: core.MaxReuseEntries + 1},
		{Workload: "lzw", VPredEntries: -1},
		{Workload: "lzw", MaxInstances: -1},
		{Workload: "lzw", InputVariant: -1},
	} {
		var ce *core.ConfigError
		if _, _, err := m.Submit(spec); !errors.As(err, &ce) {
			t.Errorf("Submit(%+v) = %v, want a *core.ConfigError", spec, err)
		}
	}
	if docs := m.List(); len(docs) != 0 {
		t.Errorf("rejected specs left %d jobs", len(docs))
	}
	m.Drain()
	if _, recs, err := OpenJournal(dir); err != nil || len(recs) != 0 {
		t.Errorf("journal holds %d records (err %v), want none", len(recs), err)
	}
	if runs.Load() != 0 {
		t.Errorf("runner called %d times", runs.Load())
	}
}

// TestJournaledInvalidSpecFailsForGood: a queued record whose spec
// Submit would now reject (one an older build journaled) fails at its
// first attempt without calling the runner or spending a retry.
func TestJournaledInvalidSpecFailsForGood(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "feedc0de", Spec: Spec{Workload: "lzw", ReuseAssoc: -1}, State: StateQueued}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	var runs atomic.Int64
	m := openManager(t, dir, Options{Retries: 5, Runner: fakeRunner(func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		runs.Add(1)
		return nil, errors.New("an invalid spec ran")
	})})
	defer m.Drain()
	m.Start()
	doc := waitState(t, m, rec.ID, StateFailed)
	if runs.Load() != 0 || doc.Retries != 0 || !strings.Contains(doc.Error, "ReuseAssoc") {
		t.Errorf("journaled invalid spec: %d runs, doc %+v; want 0 runs, 0 retries, the config error", runs.Load(), doc)
	}
}
