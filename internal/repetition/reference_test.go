package repetition_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/cpu"
	"repro/internal/repetition"
	"repro/internal/workloads"
)

// refKey is the reference census's instance identity, derived from the
// event on its own: the values of the source registers read, the
// values written, and a branch's direction.
type refKey struct {
	in1, in2 uint32
	out, aux uint32
	taken    bool
}

func refKeyOf(ev *cpu.Event) refKey {
	k := refKey{taken: ev.IsBranch && ev.Taken}
	if ev.Src1 >= 0 {
		k.in1 = ev.Src1Val
	}
	if ev.Src2 >= 0 {
		k.in2 = ev.Src2Val
	}
	if ev.Dst >= 0 {
		k.out = ev.DstVal
	}
	if ev.Aux >= 0 {
		k.aux = ev.AuxVal
	}
	return k
}

// refCensus is the plain model of the census: per PC, the set of
// instances seen, holding at most limit of them. An instance repeats
// when its PC's set holds it; a new instance joins the set while there
// is room and is dropped once the set is full.
type refCensus struct {
	limit   int
	pcs     map[uint32]map[refKey]bool
	dropped uint64
}

func (r *refCensus) observe(ev *cpu.Event) bool {
	set := r.pcs[ev.PC]
	if set == nil {
		set = make(map[refKey]bool)
		r.pcs[ev.PC] = set
	}
	k := refKeyOf(ev)
	if set[k] {
		return true
	}
	if len(set) < r.limit {
		set[k] = true
	} else {
		r.dropped++
	}
	return false
}

// censusPair feeds every measured event to a Tracker and to the model
// at the same cap, and stops the run at the first disagreement.
type censusPair struct {
	tr       *repetition.Tracker
	ref      *refCensus
	events   uint64
	mismatch string
}

// checker observes one run for several caps at once.
type checker []*censusPair

func (c checker) OnInst(ev *cpu.Event) {
	for _, p := range c {
		got, want := p.tr.Observe(ev), p.ref.observe(ev)
		if got != want && p.mismatch == "" {
			p.mismatch = fmt.Sprintf("event %d (pc 0x%x, %v): tracker repeated=%v, model %v",
				p.events, ev.PC, ev.Inst.Op, got, want)
		}
		p.events++
	}
}

// TestTrackerMatchesReferenceCensus runs every workload at
// QuickConfig's window and compares the tracker's verdict with the
// plain model's for every measured event: at the paper's 2000-instance
// cap, and at a cap of 4, where records fill and instances are
// dropped. It holds the tracker's inline tier, open-addressing set
// and last-match cache to the definition they optimize.
func TestTrackerMatchesReferenceCensus(t *testing.T) {
	window := repro.QuickConfig()
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			im, err := w.Image()
			if err != nil {
				t.Fatal(err)
			}
			m := cpu.New(im, w.Input(1))
			if _, err := m.Run(window.SkipInstructions); err != nil {
				t.Fatal(err)
			}
			var c checker
			for _, limit := range []int{repetition.DefaultMaxInstances, 4} {
				tr := repetition.NewTracker(im.StaticInstructions())
				tr.MaxInstances = limit
				c = append(c, &censusPair{tr: tr, ref: &refCensus{limit: limit, pcs: make(map[uint32]map[refKey]bool)}})
			}
			m.Attach(c)
			if _, err := m.Run(window.MeasureInstructions); err != nil {
				t.Fatal(err)
			}
			for _, p := range c {
				if p.mismatch != "" {
					t.Errorf("cap %d: %s", p.ref.limit, p.mismatch)
				}
				if p.events != window.MeasureInstructions {
					t.Errorf("cap %d: %d events measured, want %d", p.ref.limit, p.events, window.MeasureInstructions)
				}
			}
			if small := c[1]; small.ref.dropped == 0 {
				t.Errorf("cap %d dropped no instance: the full-record path went unchecked", small.ref.limit)
			}
		})
	}
}
