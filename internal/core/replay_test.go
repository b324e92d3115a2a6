package core_test

// Tests for verdict replay (replay.go): under a ReplayGroups registry,
// runs that differ only in the reuse buffer replay the first run's
// census verdicts and stay byte-identical to standalone runs; the
// replay's metrics say so; ineligible runs neither lead nor replay;
// checkpointed runs lead and replay, a resumed leader publishes nothing
// and a replay loads and writes no snapshot; and a run waiting for its
// leader holds no CPU claim and gives the wait up with its context.

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reuse"
)

func replayTestConfig() core.Config {
	return core.Config{SkipInstructions: 20_000, MeasureInstructions: 100_000}
}

// withReuse is cfg with another reuse buffer.
func withReuse(cfg core.Config, entries, assoc int, policy reuse.Policy) core.Config {
	cfg.ReuseEntries, cfg.ReuseAssoc, cfg.ReusePolicy = entries, assoc, policy
	return cfg
}

// phaseNames lists the run span's phases.
func phaseNames(r *core.Report) []string {
	var names []string
	for _, c := range r.Metrics.Phases.Children {
		names = append(names, c.Name)
	}
	return names
}

func replayCtx() context.Context {
	return core.WithReplayGroups(context.Background(), core.NewReplayGroups())
}

// TestReplayMatchesStandalone runs configs that differ only in the
// reuse buffer under one registry: the first leads with the full
// pipeline and every later one replays, and each canonical report is
// byte-identical to a standalone run of its config. It also pins what a
// replay's RunMetrics show: exec_path "replay", a "replay" phase where
// the leader has "measure", and no observer pass.
func TestReplayMatchesStandalone(t *testing.T) {
	im := checkpointTestImage(t)
	ctx := replayCtx()
	i := 0
	for _, entries := range []int{1024, 64} {
		for _, assoc := range []int{1, 4} {
			for _, policy := range []reuse.Policy{reuse.LRU, reuse.Random} {
				cfg := withReuse(replayTestConfig(), entries, assoc, policy)
				got, err := core.Run(ctx, im, nil, "replay", cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Run(context.Background(), im, nil, "replay", cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(canonical(t, got), canonical(t, want)) {
					t.Errorf("%d/%d/%v: report differs from a standalone run", entries, assoc, policy)
				}
				m := got.Metrics
				wantPath, wantPhases := obs.ExecReplay, []string{"load", "skip", "replay", "collect"}
				if i == 0 {
					wantPath, wantPhases = obs.ExecTranslated, []string{"load", "skip", "measure", "collect"}
					if !slices.ContainsFunc(m.Observers, func(o obs.ObserverCost) bool { return o.Name == "verdicts" }) {
						t.Errorf("the leader's observers do not list its verdict stage: %+v", m.Observers)
					}
				} else if len(m.Observers) != 0 || len(m.ObserverHelper) != 0 {
					t.Errorf("replay %d reports observer passes: %+v, helper %v", i, m.Observers, m.ObserverHelper)
				}
				if m.ExecPath != wantPath {
					t.Errorf("run %d: exec_path %q, want %q", i, m.ExecPath, wantPath)
				}
				if got := phaseNames(got); !slices.Equal(got, wantPhases) {
					t.Errorf("run %d: phases %v, want %v", i, got, wantPhases)
				}
				if m.Sim.Retired != want.Metrics.Sim.Retired {
					t.Errorf("run %d retired %d instructions, standalone %d", i, m.Sim.Retired, want.Metrics.Sim.Retired)
				}
				i++
			}
		}
	}
}

// TestReplayCutShort cancels a replay, and a standalone run of the same
// config, at the first progress notice of their measure windows, which
// comes at the same retire count: the replay's truncated report holds
// its own reuse figures over that prefix, equal to the standalone
// run's, and no census statistic, since the leader's describe the whole
// window.
func TestReplayCutShort(t *testing.T) {
	im := checkpointTestImage(t)
	ctx := replayCtx()
	cfg := core.Config{SkipInstructions: 20_000, MeasureInstructions: 600_000}
	if _, err := core.Run(ctx, im, nil, "replay", cfg); err != nil {
		t.Fatal(err)
	}
	sibling := withReuse(cfg, 256, 4, reuse.FIFO)
	cutAtFirstNotice := func(ctx context.Context, phase string) (*core.Report, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		cfg := sibling
		cfg.Progress = func(p core.Progress) {
			if p.Phase == phase {
				cancel()
			}
		}
		return core.Run(ctx, im, nil, "replay", cfg)
	}
	got, err := cutAtFirstNotice(ctx, "replay")
	if !errors.Is(err, context.Canceled) || got == nil || !got.Truncated {
		t.Fatalf("canceled replay: err %v, report %v", err, got != nil)
	}
	want, err := cutAtFirstNotice(context.Background(), "measure")
	if !errors.Is(err, context.Canceled) || want == nil || !want.Truncated {
		t.Fatalf("canceled standalone run: err %v, report %v", err, want != nil)
	}
	if got.Metrics.ExecPath != obs.ExecReplay || got.TruncatedReason != core.ReasonCanceled {
		t.Errorf("exec_path %q, truncated reason %q", got.Metrics.ExecPath, got.TruncatedReason)
	}
	if got.MeasuredInstructions != want.MeasuredInstructions || got.MeasuredInstructions >= cfg.MeasureInstructions {
		t.Fatalf("replay measured %d, standalone %d, of %d", got.MeasuredInstructions, want.MeasuredInstructions, cfg.MeasureInstructions)
	}
	if got.ReusePctAll != want.ReusePctAll || got.ReusePctRepeated != want.ReusePctRepeated {
		t.Errorf("replay prefix reuse %v/%v, standalone %v/%v",
			got.ReusePctAll, got.ReusePctRepeated, want.ReusePctAll, want.ReusePctRepeated)
	}
	if got.DynTotal != 0 || got.Fig1 != nil {
		t.Errorf("truncated replay carries census statistics: DynTotal %d, Fig1 %v", got.DynTotal, got.Fig1)
	}
}

// TestReplayEligibility: a run with a fault plan or no reuse buffer
// neither leads nor replays, a run with a checkpoint policy leads and
// replays like any other, and a run that differs from the leader in
// more than the reuse buffer leads a group of its own.
func TestReplayEligibility(t *testing.T) {
	im := checkpointTestImage(t)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := replayTestConfig()
	faulted := base
	faulted.Faults = faultinject.NewPlan(faultinject.Fault{Kind: faultinject.SimFault, Workload: "elsewhere", At: 1})
	checkpointed := base
	checkpointed.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "e1191b1e"}
	noReuse := base
	noReuse.DisableReuse = true

	path := func(ctx context.Context, name string, input []byte, cfg core.Config) string {
		t.Helper()
		r, err := core.Run(ctx, im, input, name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics.ExecPath
	}
	for what, cfg := range map[string]core.Config{
		"fault plan": faulted, "no reuse buffer": noReuse,
	} {
		ctx := replayCtx()
		if got := path(ctx, "replay", nil, cfg); got != obs.ExecTranslated {
			t.Errorf("%s, first in its group: exec_path %q", what, got)
		}
		if got := path(ctx, "replay", nil, base); got != obs.ExecTranslated {
			t.Errorf("%s: the eligible run after it did not lead (exec_path %q)", what, got)
		}
		if got := path(ctx, "replay", nil, withReuse(cfg, 64, 1, reuse.FIFO)); got != obs.ExecTranslated {
			t.Errorf("%s, after a published leader: exec_path %q", what, got)
		}
		if got := path(ctx, "replay", nil, withReuse(base, 64, 1, reuse.FIFO)); got != obs.ExecReplay {
			t.Errorf("%s: an eligible sibling did not replay (exec_path %q)", what, got)
		}
	}

	ctx := replayCtx()
	if got := path(ctx, "replay", nil, checkpointed); got != obs.ExecTranslated {
		t.Errorf("checkpoint policy, first in its group: exec_path %q, want a leader", got)
	}
	if got := path(ctx, "replay", nil, withReuse(checkpointed, 64, 1, reuse.FIFO)); got != obs.ExecReplay {
		t.Errorf("checkpoint policy, after a published leader: exec_path %q, want a replay", got)
	}
	if got := path(ctx, "replay", nil, withReuse(base, 256, 1, reuse.FIFO)); got != obs.ExecReplay {
		t.Errorf("a sibling of a checkpointed leader: exec_path %q, want a replay", got)
	}

	ctx = replayCtx()
	path(ctx, "replay", nil, base)
	otherWindow, otherCap := base, base
	otherWindow.SkipInstructions++
	otherCap.MaxInstances = 100
	for what, run := range map[string]func() string{
		"another name":        func() string { return path(ctx, "other", nil, base) },
		"another input":       func() string { return path(ctx, "replay", []byte{1}, base) },
		"another window":      func() string { return path(ctx, "replay", nil, otherWindow) },
		"another census size": func() string { return path(ctx, "replay", nil, otherCap) },
	} {
		if got := run(); got != obs.ExecTranslated {
			t.Errorf("%s: exec_path %q, want its own full run", what, got)
		}
	}
}

// TestReplayWaitsForLeader holds a leader in its measure phase: a
// sibling waits for it without claiming a CPU, a sibling whose context
// ends gives the wait up and runs, cut short, on its own, and a sibling
// still waiting when the leader finishes replays it.
func TestReplayWaitsForLeader(t *testing.T) {
	im := checkpointTestImage(t)
	ctx := replayCtx()
	inMeasure, resume := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	leaderCfg := replayTestConfig()
	leaderCfg.Progress = func(p core.Progress) {
		if p.Phase == "measure" {
			hold.Do(func() {
				close(inMeasure)
				<-resume
			})
		}
	}
	type result struct {
		rep *core.Report
		err error
	}
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failed test still lets the leader finish
	leader := make(chan result, 1)
	go func() {
		r, err := core.Run(ctx, im, nil, "replay", leaderCfg)
		leader <- result{r, err}
	}()
	<-inMeasure
	claims := core.ClaimedCPUs()

	sibling := withReuse(replayTestConfig(), 64, 4, reuse.LRU)
	waiting, canceled := make(chan result, 1), make(chan result, 1)
	go func() {
		r, err := core.Run(ctx, im, nil, "replay", sibling)
		waiting <- result{r, err}
	}()
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		r, err := core.Run(cctx, im, nil, "replay", withReuse(sibling, 256, 1, reuse.LRU))
		canceled <- result{r, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if n := core.ClaimedCPUs(); n != claims {
		t.Errorf("%d CPUs claimed with two siblings waiting, want %d", n, claims)
	}
	select {
	case <-waiting:
		t.Fatal("a sibling finished while its leader was still measuring")
	case <-canceled:
		t.Fatal("a sibling finished before its context ended")
	default:
	}

	cancel()
	c := <-canceled
	if !errors.Is(c.err, context.Canceled) || c.rep == nil || !c.rep.Truncated {
		t.Errorf("canceled sibling: err %v, report %v", c.err, c.rep != nil)
	} else if c.rep.Metrics.ExecPath != obs.ExecTranslated {
		t.Errorf("canceled sibling ran on %q, want its own full run", c.rep.Metrics.ExecPath)
	}

	release()
	if l := <-leader; l.err != nil {
		t.Fatal(l.err)
	}
	w := <-waiting
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.rep.Metrics.ExecPath != obs.ExecReplay {
		t.Errorf("waiting sibling ran on %q, want a replay", w.rep.Metrics.ExecPath)
	}
	want, err := core.Run(context.Background(), im, nil, "replay", sibling)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, w.rep), canonical(t, want)) {
		t.Error("waiting sibling's replay differs from a standalone run")
	}
}

// checkpointedReplayConfig has a measure window longer than one run
// chunk, so a count-paced policy can snapshot mid-window.
func checkpointedReplayConfig() core.Config {
	return core.Config{SkipInstructions: 20_000, MeasureInstructions: 300_000}
}

// standalone is a run of cfg under no registry and no policy.
func standalone(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	cfg.Checkpoint = nil
	r, err := core.Run(context.Background(), checkpointTestImage(t), nil, "replay", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, r)
}

// TestResumedLeaderPublishesNothing cuts a checkpointed leader short
// after its first measure-phase snapshot. Its resumed run leads the
// group again, since the cut run published nothing, and matches a
// standalone run; it lacks the verdicts from before the cut, so it
// publishes nothing either. The next sibling then leads with a full
// run, and the one after it replays that sibling's verdicts; both match
// standalone runs.
func TestResumedLeaderPublishesNothing(t *testing.T) {
	im := checkpointTestImage(t)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := replayCtx()
	cfg := checkpointedReplayConfig()

	cut, cancel := context.WithCancel(ctx)
	defer cancel()
	leader := cfg
	leader.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "1eade4", Every: 1,
		Notify: func(ev core.CheckpointEvent) {
			if ev.Phase == "measure" {
				cancel()
			}
		}}
	if r, err := core.Run(cut, im, nil, "replay", leader); !errors.Is(err, context.Canceled) || r == nil || !r.Truncated {
		t.Fatalf("cut-short leader: err %v, report %v", err, r != nil)
	}
	if len(store.Keys()) != 1 {
		t.Fatalf("the cut-short leader left %d snapshots, want 1", len(store.Keys()))
	}

	var resumes atomic.Int64
	leader.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "1eade4", Resume: true,
		Notify: func(ev core.CheckpointEvent) {
			if ev.Resumed {
				resumes.Add(1)
			}
		}}
	r, err := core.Run(ctx, im, nil, "replay", leader)
	if err != nil {
		t.Fatal(err)
	}
	if resumes.Load() != 1 || r.Metrics.ExecPath != obs.ExecTranslated {
		t.Fatalf("resumed leader: %d resumes, exec_path %q", resumes.Load(), r.Metrics.ExecPath)
	}
	if !bytes.Equal(canonical(t, r), standalone(t, cfg)) {
		t.Error("the resumed leader's report differs from a standalone run")
	}

	for i, want := range []string{obs.ExecTranslated, obs.ExecReplay} {
		sibling := withReuse(cfg, 64<<i, 4>>(2*i), reuse.FIFO)
		r, err := core.Run(ctx, im, nil, "replay", sibling)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.ExecPath != want {
			t.Errorf("sibling %d: exec_path %q, want %q", i, r.Metrics.ExecPath, want)
		}
		if !bytes.Equal(canonical(t, r), standalone(t, sibling)) {
			t.Errorf("sibling %d's report differs from a standalone run", i)
		}
	}
}

// TestReplayUnderCheckpointPolicy: a replay under a count-paced policy
// that would snapshot at every chunk boundary, and asks to resume,
// neither resumes nor writes, and removes the snapshot an earlier full
// attempt of its config left under its key.
func TestReplayUnderCheckpointPolicy(t *testing.T) {
	im := checkpointTestImage(t)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := replayCtx()
	cfg := checkpointedReplayConfig()
	leader := cfg
	leader.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "1eade4", Every: 1}
	if _, err := core.Run(ctx, im, nil, "replay", leader); err != nil {
		t.Fatal(err)
	}
	if keys := store.Keys(); len(keys) != 0 {
		t.Fatalf("the completed leader left snapshots %v", keys)
	}

	// The earlier attempt: a full run of the sibling's config, under no
	// registry, cut short after its first measure-phase snapshot.
	sibling := withReuse(cfg, 256, 1, reuse.Random)
	cut, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempt := sibling
	attempt.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "5b1b", Every: 1,
		Notify: func(ev core.CheckpointEvent) {
			if ev.Phase == "measure" {
				cancel()
			}
		}}
	if _, err := core.Run(cut, im, nil, "replay", attempt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut-short attempt: err %v", err)
	}
	if keys := store.Keys(); len(keys) != 1 {
		t.Fatalf("the cut-short attempt left %d snapshots, want 1", len(keys))
	}

	var events []core.CheckpointEvent
	sibling.Checkpoint = &core.CheckpointPolicy{Store: store, Key: "5b1b", Every: 1, Resume: true,
		Notify: func(ev core.CheckpointEvent) { events = append(events, ev) }}
	r, err := core.Run(ctx, im, nil, "replay", sibling)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.ExecPath != obs.ExecReplay {
		t.Fatalf("checkpointed sibling ran on %q, want a replay", r.Metrics.ExecPath)
	}
	if len(events) != 0 {
		t.Errorf("the replay resumed or wrote snapshots: %+v", events)
	}
	if keys := store.Keys(); len(keys) != 0 {
		t.Errorf("snapshots %v survive the replay, want none", keys)
	}
	if !bytes.Equal(canonical(t, r), standalone(t, sibling)) {
		t.Error("the checkpointed replay differs from a standalone run")
	}
}
