package reuse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
)

// refBuffer is the reuse buffer in the hardware's layout, the
// reference for the stored-set layout: all sets × assoc ways, set
// (pc>>2) mod sets, and invalidation by a walk over every valid load.
// It shares only the policy's seed and generator with Buffer.
type refBuffer struct {
	ways   []refWay
	loads  map[int]bool // indexes of the valid load ways
	sets   int
	assoc  int
	policy Policy
	clock  uint64
	rng    uint64

	hits, hitsRepeated, hitsNonRepeated, loadInv uint64
}

type refWay struct {
	valid                bool
	pc, in1, in2         uint32
	result, aux, address uint32
	stamp                uint64
}

func newRefBuffer(sets, assoc int, policy Policy) *refBuffer {
	return &refBuffer{
		ways:   make([]refWay, sets*assoc),
		loads:  map[int]bool{},
		sets:   sets,
		assoc:  assoc,
		policy: policy,
		rng:    rngSeed(sets*assoc, assoc),
	}
}

func (r *refBuffer) nextRand() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (r *refBuffer) Observe(ev *cpu.Event, repeated bool) bool {
	r.clock++
	if ev.IsStore {
		for i := range r.loads {
			if r.ways[i].address == ev.Addr&^3 {
				r.ways[i].valid = false
				delete(r.loads, i)
				r.loadInv++
			}
		}
	}
	var in1, in2, res, aux uint32
	if ev.Src1 >= 0 {
		in1 = ev.Src1Val
	}
	if ev.Src2 >= 0 {
		in2 = ev.Src2Val
	}
	if ev.Dst >= 0 {
		res = ev.DstVal
	}
	if ev.Aux >= 0 {
		aux = ev.AuxVal
	}
	if ev.IsBranch {
		res = 0
		if ev.Taken {
			res = 1
		}
	}
	base := int(ev.PC>>2) % r.sets * r.assoc
	set := r.ways[base : base+r.assoc]
	for w := range set {
		way := &set[w]
		if !way.valid || way.pc != ev.PC || way.in1 != in1 || way.in2 != in2 {
			continue
		}
		if r.policy == LRU {
			way.stamp = r.clock
		}
		if way.result != res || way.aux != aux {
			way.result, way.aux = res, aux
			return false
		}
		r.hits++
		if repeated {
			r.hitsRepeated++
		} else {
			r.hitsNonRepeated++
		}
		return true
	}
	// Buffer's victim rule, way positions included: Random takes the
	// first invalid way, else a draw; LRU and FIFO start from way 0 and
	// stop at the first invalid way after it, else keep the oldest stamp.
	victim := 0
	if r.policy == Random {
		victim = -1
		for w := range set {
			if !set[w].valid {
				victim = w
				break
			}
		}
		if victim < 0 {
			victim = int(r.nextRand() % uint64(r.assoc))
		}
	} else {
		for w := 1; w < len(set); w++ {
			if !set[w].valid {
				victim = w
				break
			}
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
	}
	delete(r.loads, base+victim)
	set[victim] = refWay{valid: true, pc: ev.PC, in1: in1, in2: in2,
		result: res, aux: aux, address: ev.Addr &^ 3, stamp: r.clock}
	if ev.IsLoad {
		r.loads[base+victim] = true
	}
	return false
}

// layoutStream is a seeded stream of ALU, load and store events over
// words text words. Few operand values and few addresses make it hit,
// overflow its sets and invalidate loads often.
func layoutStream(seed int64, words, n int) []cpu.Event {
	rng := rand.New(rand.NewSource(seed))
	memory := map[uint32]uint32{}
	evs := make([]cpu.Event, n)
	for i := range evs {
		// Half the events come from a hot 64-word region, so some
		// instructions repeat often enough to hit.
		k := rng.Intn(words)
		if rng.Intn(2) == 0 {
			k = rng.Intn(min(64, words))
		}
		pc := program.TextBase + uint32(4*k)
		addr := uint32(0x10000000 + 4*rng.Intn(48))
		switch rng.Intn(4) {
		case 0:
			evs[i] = *loadEv(pc, addr, memory[addr])
		case 1:
			v := uint32(rng.Intn(4))
			memory[addr] = v
			evs[i] = *storeEv(pc, addr, v)
		default:
			x, y := uint32(rng.Intn(12)), uint32(rng.Intn(3))
			evs[i] = *aluEv(pc, x, y, x+y)
		}
	}
	return evs
}

// TestStoredSetsMatchHardwareLayout feeds one stream to the stored-set
// buffer and to the reference in the hardware's layout: every Observe
// and every counter must agree, for set counts below, at and above
// the text length, power of two or not, every associativity the sweep
// uses and every policy. The stored length is min(sets, words)×assoc,
// and Entries and Sets report the configured geometry.
func TestStoredSetsMatchHardwareLayout(t *testing.T) {
	const words = 1000
	evs := layoutStream(1998, words, 20_000)
	for _, sets := range []int{64, 250, words, 8192 / 3, 16384} {
		for _, assoc := range []int{1, 4, 8} {
			for _, pol := range []Policy{LRU, FIFO, Random} {
				t.Run(fmt.Sprintf("%dx%d/%v", sets, assoc, pol), func(t *testing.T) {
					b := NewPolicy(sets*assoc, assoc, pol, words)
					ref := newRefBuffer(sets, assoc, pol)
					if want := min(sets, words) * assoc; len(b.tags) != want || len(b.entries) != want {
						t.Fatalf("stores %d/%d entries, want %d", len(b.tags), len(b.entries), want)
					}
					if b.Entries() != sets*assoc || b.Sets() != sets {
						t.Fatalf("reports %d entries, %d sets; want %d, %d", b.Entries(), b.Sets(), sets*assoc, sets)
					}
					for i := range evs {
						repeated := i%3 == 0
						if got, want := b.Observe(&evs[i], repeated), ref.Observe(&evs[i], repeated); got != want {
							t.Fatalf("event %d (pc 0x%x): hit %v, hardware layout %v", i, evs[i].PC, got, want)
						}
					}
					if b.Hits() != ref.hits || b.HitsRepeated() != ref.hitsRepeated ||
						b.HitsNonRepeated() != ref.hitsNonRepeated || b.LoadInvalidations() != ref.loadInv {
						t.Errorf("counters %d/%d/%d/%d, hardware layout %d/%d/%d/%d",
							b.Hits(), b.HitsRepeated(), b.HitsNonRepeated(), b.LoadInvalidations(),
							ref.hits, ref.hitsRepeated, ref.hitsNonRepeated, ref.loadInv)
					}
					if ref.hits == 0 || ref.loadInv == 0 {
						t.Errorf("stream made %d hits and %d invalidations: the comparison is vacuous", ref.hits, ref.loadInv)
					}
				})
			}
		}
	}
}
