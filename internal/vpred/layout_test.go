package vpred

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
)

// refPredictor is the predictor in the hardware's layout, the
// reference for the stored-entry layout: all entries, entry
// (pc>>2) mod entries.
type refPredictor struct {
	table []entry

	eligible, lastCorrect, strideCorrect, hybridCorrect uint64
}

func (r *refPredictor) Observe(ev *cpu.Event) {
	if ev.Dst < 0 {
		return
	}
	r.eligible++
	e := &r.table[int(ev.PC>>2)%len(r.table)]
	if !e.valid || e.pc != ev.PC {
		*e = entry{valid: true, pc: ev.PC, last: ev.DstVal}
		return
	}
	lastOK := e.last == ev.DstVal
	strideOK := e.warm && e.last+e.stride == ev.DstVal
	if lastOK {
		r.lastCorrect++
	}
	if strideOK {
		r.strideCorrect++
	}
	if lastOK || strideOK {
		r.hybridCorrect++
	}
	e.stride, e.warm, e.last = ev.DstVal-e.last, true, ev.DstVal
}

// TestStoredEntriesMatchHardwareLayout feeds one seeded stream over
// words text words to the stored-entry predictor and to the reference
// in the hardware's layout, for table sizes below, at and above the
// text length, power of two or not: every counter agrees after every
// event, and the stored table holds min(entries, words) entries.
func TestStoredEntriesMatchHardwareLayout(t *testing.T) {
	const words = 1000
	rng := rand.New(rand.NewSource(1998))
	evs := make([]cpu.Event, 20_000)
	for i := range evs {
		k := rng.Intn(words)
		if rng.Intn(2) == 0 {
			k = rng.Intn(64) // a hot region that trains
		}
		evs[i] = *ev(program.TextBase+uint32(4*k), uint32(k+4*(i%3)))
		if rng.Intn(5) == 0 {
			evs[i].Dst = -1 // a store or branch: not eligible
		}
	}
	for _, entries := range []int{64, 250, words, 8192 / 3, DefaultEntries} {
		t.Run(fmt.Sprint(entries), func(t *testing.T) {
			p := New(entries, words)
			ref := &refPredictor{table: make([]entry, entries)}
			if want := min(entries, words); len(p.table) != want {
				t.Fatalf("stores %d entries, want %d", len(p.table), want)
			}
			for i := range evs {
				p.Observe(&evs[i])
				ref.Observe(&evs[i])
				if p.eligible != ref.eligible || p.lastCorrect != ref.lastCorrect ||
					p.strideCorrect != ref.strideCorrect || p.hybridCorrect != ref.hybridCorrect {
					t.Fatalf("event %d (pc 0x%x): counters %d/%d/%d/%d, hardware layout %d/%d/%d/%d",
						i, evs[i].PC, p.eligible, p.lastCorrect, p.strideCorrect, p.hybridCorrect,
						ref.eligible, ref.lastCorrect, ref.strideCorrect, ref.hybridCorrect)
				}
			}
			if ref.lastCorrect == 0 || ref.strideCorrect == 0 {
				t.Errorf("stream made %d last-value and %d stride hits: the comparison is vacuous",
					ref.lastCorrect, ref.strideCorrect)
			}
		})
	}
}
