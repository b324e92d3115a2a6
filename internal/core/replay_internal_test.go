package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/program"
)

// replayTestImage is a short loop with calls, loads and repeats.
func replayTestImage(t *testing.T) *program.Image {
	t.Helper()
	im, err := minic.Compile(`
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int lookup(int i) { return table[i & 15]; }
int main() {
	int sum;
	int i;
	int round;
	sum = 0;
	for (round = 0; round < 2000; round++) {
		for (i = 0; i < 16; i++) {
			sum += lookup(i);
		}
	}
	return sum & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestReplayRejectsForgedVerdicts hands a replay a record whose bitmap
// is shorter, then longer, than its measure window: the replay returns
// an error and no report.
func TestReplayRejectsForgedVerdicts(t *testing.T) {
	im := replayTestImage(t)
	gs := NewReplayGroups()
	ctx := WithReplayGroups(context.Background(), gs)
	cfg := Config{SkipInstructions: 10_000, MeasureInstructions: 100_000}
	if _, err := Run(ctx, im, nil, "forged", cfg); err != nil {
		t.Fatal(err)
	}
	if len(gs.groups) != 1 {
		t.Fatalf("%d groups after one run, want 1", len(gs.groups))
	}
	var g *group
	for _, g = range gs.groups {
	}
	real := g.rec
	if real == nil || real.n != cfg.MeasureInstructions {
		t.Fatalf("the leader published %+v, want %d verdicts", real, cfg.MeasureInstructions)
	}
	short := *real
	short.bits = real.bits[:len(real.bits)-1]
	short.n = uint64(len(short.bits)) * 64
	long := *real
	long.bits = append(slices.Clone(real.bits), 0)
	long.n = real.n + 64
	for _, forged := range []*verdicts{&short, &long} {
		g.rec = forged
		sibling := cfg
		sibling.ReuseEntries = 64
		rep, err := Run(ctx, im, nil, "forged", sibling)
		if err == nil || rep != nil {
			t.Errorf("%d verdicts for a %d-instruction window: report %v, err %v",
				forged.n, cfg.MeasureInstructions, rep != nil, err)
		} else if !strings.Contains(err.Error(), "census verdicts cover") {
			t.Errorf("unexpected error: %v", err)
		}
	}
}

// TestReplayGroupsBoundAndRelead holds a registry to about two
// published groups. Publishing a third evicts the group used least
// recently, not the one a replay touched since; an evicted group's next
// run leads again and publishes; and a leader cut short publishes
// nothing and leaves the registry, so its group's next run leads and
// the one after it replays.
func TestReplayGroupsBoundAndRelead(t *testing.T) {
	im := replayTestImage(t)
	gs := NewReplayGroups()
	ctx := WithReplayGroups(context.Background(), gs)
	cfg := Config{SkipInstructions: 10_000, MeasureInstructions: 100_000}
	sibling := cfg
	sibling.ReuseEntries = 64
	run := func(ctx context.Context, name string, cfg Config) (*Report, error) {
		t.Helper()
		r, err := Run(ctx, im, nil, name, cfg)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		return r, err
	}
	path := func(name string, cfg Config) string {
		t.Helper()
		r, _ := run(ctx, name, cfg)
		return r.Metrics.ExecPath
	}
	published := func() []string { return publishedGroups(t, gs) }

	path("a", cfg)
	gs.mu.Lock()
	gs.max = 2*gs.bytes + gs.bytes/2 // two groups of this size fit, three do not
	gs.mu.Unlock()
	path("b", cfg)
	if got := path("a", sibling); got != obs.ExecReplay {
		t.Fatalf("a's sibling ran on %q, want a replay", got)
	}
	path("c", cfg)
	if got := published(); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("published groups %v after a third, want [c a]: b was used least recently", got)
	}
	if got := path("b", sibling); got != obs.ExecTranslated {
		t.Errorf("evicted group's next run: exec_path %q, want a new leader", got)
	}
	if got := path("b", cfg); got != obs.ExecReplay {
		t.Errorf("the new leader's sibling: exec_path %q, want a replay", got)
	}
	if got := published(); !slices.Equal(got, []string{"b", "c"}) {
		t.Errorf("published groups %v, want [b c]", got)
	}

	cut, cancel := context.WithCancel(ctx)
	defer cancel()
	cutCfg := cfg
	cutCfg.Progress = func(p Progress) { cancel() } // at the end of the skip window
	if r, err := run(cut, "d", cutCfg); !errors.Is(err, context.Canceled) || !r.Truncated {
		t.Fatalf("cut-short leader: err %v", err)
	}
	if got := published(); !slices.Equal(got, []string{"b", "c"}) {
		t.Errorf("published groups %v after a failed leader, want [b c]", got)
	}
	if got := path("d", sibling); got != obs.ExecTranslated {
		t.Errorf("after a failed leader: exec_path %q, want a new leader", got)
	}
	if got := path("d", cfg); got != obs.ExecReplay {
		t.Errorf("the new leader's sibling: exec_path %q, want a replay", got)
	}
}

// TestReplayGroupsConcurrentRuns runs three groups' members at once
// under a bound that holds one group: every run still matches a
// standalone run of its config, and the registry's byte count matches
// the groups it keeps. Run it under -race.
func TestReplayGroupsConcurrentRuns(t *testing.T) {
	im := replayTestImage(t)
	gs := NewReplayGroups()
	ctx := WithReplayGroups(context.Background(), gs)
	base := Config{SkipInstructions: 1_000, MeasureInstructions: 20_000}
	if _, err := Run(ctx, im, nil, "probe", base); err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.max = gs.bytes + gs.bytes/2
	gs.mu.Unlock()

	var wg sync.WaitGroup
	for _, name := range []string{"a", "b", "c"} {
		for _, entries := range []int{64, 256, 1024, 4096} {
			cfg := base
			cfg.ReuseEntries = entries
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Run(ctx, im, nil, name, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := Run(context.Background(), im, nil, name, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				g, _ := CanonicalJSON(got)
				w, _ := CanonicalJSON(want)
				if string(g) != string(w) {
					t.Errorf("%s/%d: report differs from a standalone run", name, entries)
				}
			}()
		}
	}
	wg.Wait()
	if names := publishedGroups(t, gs); len(names) != 1 || gs.bytes > gs.max {
		t.Errorf("registry keeps %v in %d bytes, bound %d: want one group", names, gs.bytes, gs.max)
	}
}

// publishedGroups lists the names of gs's published groups, most
// recently used first, and checks the registry's accounting against its
// LRU list: the byte count is the groups' sum, every group in the map is
// on the list, and each counts at least its bitmap.
func publishedGroups(t *testing.T, gs *ReplayGroups) []string {
	t.Helper()
	gs.mu.Lock()
	defer gs.mu.Unlock()
	var names []string
	var bytes int64
	for el := gs.lru.Front(); el != nil; el = el.Next() {
		g := el.Value.(*group)
		names = append(names, g.key.name)
		bytes += g.size
		if g.size < 8*int64(len(g.rec.bits)) {
			t.Errorf("group %s counts %d bytes, less than its bitmap", g.key.name, g.size)
		}
	}
	if bytes != gs.bytes || len(names) != len(gs.groups) {
		t.Errorf("registry counts %d bytes and %d groups, its LRU list %d and %d",
			gs.bytes, len(gs.groups), bytes, len(names))
	}
	return names
}

// TestInvalidConfigJoinsNoGroup: a cell whose reuse geometry Validate
// rejects returns before it joins its replay group, so it can neither
// lead its siblings nor wait for a leader.
func TestInvalidConfigJoinsNoGroup(t *testing.T) {
	gs := NewReplayGroups()
	ctx := WithReplayGroups(context.Background(), gs)
	cfg := Config{SkipInstructions: 1000, MeasureInstructions: 10_000, ReuseAssoc: MaxReuseAssoc + 1}
	if _, err := Run(ctx, replayTestImage(t), nil, "invalid", cfg); err == nil {
		t.Fatal("Run accepted an out-of-range associativity")
	}
	if len(gs.groups) != 0 {
		t.Errorf("the rejected run left %d groups, want 0", len(gs.groups))
	}
}

// TestHelperStagesReadNoPipelineField zeroes a pipeline and then runs
// each helper-side stage over a batch with the window open: a stage
// that read a Pipeline field would panic or skip the batch (DESIGN.md
// §15).
func TestHelperStagesReadNoPipelineField(t *testing.T) {
	im := replayTestImage(t)
	var evs recorder
	m := cpu.New(im, nil)
	m.Attach(&evs)
	if _, err := m.Run(batchSize); err != nil {
		t.Fatal(err)
	}
	b := newBatch()
	for i := range evs {
		b.evs = append(b.evs, evs[i])
		b.vers = append(b.vers, i%2 == 0)
		b.kinds = append(b.kinds, itemInst)
	}
	b.counting = true

	p := NewPipeline(im, Config{})
	stages, lo, rb, vp, vf := p.stages, p.Local, p.Reuse, p.VPred, p.VProf
	*p = Pipeline{}
	var ran []string
	for i := range stages {
		if st := &stages[i]; st.helper {
			func() {
				defer func() {
					if pv := recover(); pv != nil {
						t.Errorf("stage %s panicked on a zeroed pipeline: %v", st.name, pv)
					}
				}()
				st.run(b)
			}()
			ran = append(ran, st.name)
		}
	}
	if want := []string{"local", "reuse", "vpred", "vprofile"}; !slices.Equal(ran, want) {
		t.Errorf("helper-side stages %v, want %v", ran, want)
	}
	var counted uint64
	for _, n := range lo.Result().Counts {
		counted += n
	}
	if counted == 0 {
		t.Error("local saw none of the batch")
	}
	if got := rb.Attempts(); got != uint64(len(evs)) {
		t.Errorf("reuse saw %d of %d events", got, len(evs))
	}
	if vp.Result(uint64(len(evs))).EligiblePct == 0 {
		t.Error("vpred saw none of the batch")
	}
	if vf.Result().Sites == 0 {
		t.Error("vprofile saw none of the batch")
	}
}

// TestPassesTakeWindowFromBatch pins where the window state lives:
// SetCounting stamps only the pipeline, and each dataflow pass hands its
// analysis the state of the batch it observes.
func TestPassesTakeWindowFromBatch(t *testing.T) {
	p := NewPipeline(replayTestImage(t), Config{})
	p.SetCounting(true)
	if p.Taint.Counting || p.Local.Counting || p.Funcs.Counting {
		t.Fatal("SetCounting wrote an analysis's Counting flag")
	}
	for _, on := range []bool{true, false} {
		b := newBatch()
		b.counting = on
		for i := range p.stages {
			p.stages[i].run(b)
		}
		if p.Taint.Counting != on || p.Local.Counting != on || p.Funcs.Counting != on {
			t.Errorf("batch counting %v: taint/local/funcanal Counting = %v/%v/%v",
				on, p.Taint.Counting, p.Local.Counting, p.Funcs.Counting)
		}
	}
}

// recorder keeps a copy of every event.
type recorder []cpu.Event

func (r *recorder) OnInst(ev *cpu.Event) { *r = append(*r, *ev) }
