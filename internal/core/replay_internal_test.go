package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/minic"
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
