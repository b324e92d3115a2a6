// Package repetition implements the paper's core measurement: the
// instruction repetition census. A dynamic instance of a static
// instruction is *repeated* when it consumes the same input operand
// values and produces the same outputs as a previously buffered
// instance of that instruction (Section 2 of the paper). Up to
// MaxInstances unique instances are buffered per static instruction,
// matching the paper's 2000-entry limit.
//
// The census is the hot path of every run: it classifies each retired
// instruction in the measurement window. Two layout decisions keep it
// fast without changing any statistic:
//
//   - Per-PC records live in a dense table indexed by
//     (pc-program.TextBase)>>2. Instruction addresses are word-aligned
//     and span the immutable text segment, so the table is sized once,
//     from the image, and the direct index replaces a Go map lookup per
//     retired instruction.
//   - Each record's unique-instance buffer is an open-addressing hash
//     set over the packed 16-byte instance keys with linear probing,
//     replacing a per-PC Go map. A slot's occurrence count doubles as
//     its occupancy marker (count 0 = empty).
package repetition

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/program"
)

// DefaultMaxInstances matches the paper's per-instruction buffer limit.
const DefaultMaxInstances = 2000

// instKey identifies one unique instance: input values and outputs.
// It is compared and hashed as one packed 16-byte value.
type instKey struct {
	in1, in2 uint32
	out, aux uint32
}

// minInstanceSlots is the initial open-addressing table size per
// record; most static instructions have a handful of instances.
const minInstanceSlots = 8

// hashKey mixes the 16 key bytes into a table index seed
// (splitmix64-style finalizer over the two packed words).
func hashKey(k instKey) uint32 {
	h := uint64(k.in1)<<32 | uint64(k.in2)
	h ^= (uint64(k.out)<<32 | uint64(k.aux)) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

// islot is one occupied-or-empty slot of a record's instance set: the
// packed key and its occurrence count in one 20-byte unit, so a probe
// touches one cache line instead of two parallel arrays (a buffered
// instance has seen at least one occurrence, so count 0 = empty).
type islot struct {
	key   instKey
	count uint32
}

// instRecord is the per-static-instruction state. The first two
// instances live inline in the record itself — the census's core
// finding is that most static instructions repeat over very few
// unique instances (Figure 3), so the common case is a single 16-byte
// compare on a line the dyn++ update already touched, with no hash
// and no second allocation. PCs that accumulate more instances
// overflow into the open-addressing slots set. Instances are a pure
// set (membership and per-key counts); the two-tier layout cannot
// change any statistic. Invariant: slots != nil implies both inline
// entries are occupied.
type instRecord struct {
	// Field order is deliberate: the counters every Observe touches and
	// the first inline slot share the record's first cache line.
	dyn      uint64
	repeated uint64
	dropped  uint64 // instances not tracked because the buffer was full
	n        int32  // occupied instances (inline + slots)
	// last is the overflow-slot index of the most recently matched (or
	// inserted) instance: loops that repeat one instance re-hit it with
	// a single compare, skipping the hash. Stale values (including the
	// zero value and indices left behind by a rehash) are harmless —
	// the probe falls through to find on a key mismatch — because slot
	// indices only ever point inside the table and it never shrinks.
	last   int32
	full   bool // buffer hit MaxInstances; new instances dropped
	inline [2]islot
	slots  []islot
}

// eachRepeated calls fn with the occurrence count of each buffered
// instance that repeated at least once (count >= 2), across both
// tiers. Result-time only; the hot path never iterates.
func (rec *instRecord) eachRepeated(fn func(count uint32)) {
	for j := range rec.inline {
		if c := rec.inline[j].count; c >= 2 {
			fn(c)
		}
	}
	for i := range rec.slots {
		if c := rec.slots[i].count; c >= 2 {
			fn(c)
		}
	}
}

// find probes for k, returning its slot and whether it is occupied;
// for a missing key the returned slot is the insertion point.
func (rec *instRecord) find(k instKey) (int, bool) {
	mask := uint32(len(rec.slots) - 1)
	i := hashKey(k) & mask
	for {
		s := &rec.slots[i]
		if s.count == 0 {
			return int(i), false
		}
		if s.key == k {
			return int(i), true
		}
		i = (i + 1) & mask
	}
}

// insert adds k with count 1 at slot (from a failed find), growing and
// rehashing first when the table would pass 1/2 occupancy. The low
// load factor trades memory (bounded by the instance cap) for short
// probe chains — find runs on every overflow-tier observation, so
// probe length is hot-path latency, not a space concern.
func (rec *instRecord) insert(slot int, k instKey) {
	if int(rec.n+1)*2 > len(rec.slots) {
		old := rec.slots
		rec.slots = make([]islot, 2*len(old))
		for i := range old {
			if old[i].count != 0 {
				j, _ := rec.find(old[i].key)
				rec.slots[j] = old[i]
			}
		}
		slot, _ = rec.find(k)
	}
	rec.slots[slot] = islot{key: k, count: 1}
	rec.last = int32(slot)
	rec.n++
}

// Tracker is the repetition census. Attach it (via the core pipeline)
// to a cpu.Machine and read the statistics after the run.
type Tracker struct {
	// MaxInstances bounds the unique instances buffered per static
	// instruction; 0 means DefaultMaxInstances.
	MaxInstances int

	// Types is the per-instruction-class census (the paper's
	// mentioned-but-omitted typed total analysis).
	Types TypeStats

	// Dense per-PC table: recs[(pc-program.TextBase)>>2], one record
	// per text word. A record with dyn == 0 belongs to a never-executed
	// slot.
	recs []instRecord

	totalDyn      uint64
	totalRepeated uint64
}

// NewTracker returns a Tracker with the paper's buffer limit for a text
// segment of words instructions at program.TextBase.
func NewTracker(words int) *Tracker {
	return &Tracker{MaxInstances: DefaultMaxInstances, recs: make([]instRecord, words)}
}

// keyOf builds the instance key for an event. Inputs are the register
// sources (plus stored data for stores, which is already Src2); the
// outputs are the destination value(s). A branch's output is its
// direction, so compare-and-branch outcomes repeat the way the paper's
// compare instructions do.
func keyOf(ev *cpu.Event) instKey {
	var k instKey
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
	if ev.IsBranch && ev.Taken {
		k.out = 1
	}
	return k
}

// Observe classifies one retired instruction, returning whether it is
// a repeat of a buffered instance.
func (t *Tracker) Observe(ev *cpu.Event) bool {
	rec := &t.recs[(ev.PC-program.TextBase)>>2]
	rec.dyn++
	t.totalDyn++

	k := keyOf(ev)
	// Inline tier. Entries fill in order and the overflow set is only
	// created once both are occupied, so an empty inline entry proves
	// the key is new (and is its insertion point).
	for j := range rec.inline {
		s := &rec.inline[j]
		if s.count == 0 {
			t.Types.ObserveClass(ev, false)
			if int(rec.n) >= t.limit() {
				rec.full = true
				rec.dropped++
				return false
			}
			s.key = k
			s.count = 1
			rec.n++
			return false
		}
		if s.key == k {
			s.count++
			rec.repeated++
			t.totalRepeated++
			t.Types.ObserveClass(ev, true)
			return true
		}
	}
	// Overflow tier. Try the last-match cache before hashing.
	if rec.slots == nil {
		rec.slots = make([]islot, minInstanceSlots)
	}
	if s := &rec.slots[rec.last]; s.count != 0 && s.key == k {
		s.count++
		rec.repeated++
		t.totalRepeated++
		t.Types.ObserveClass(ev, true)
		return true
	}
	slot, seen := rec.find(k)
	if seen {
		rec.slots[slot].count++
		rec.last = int32(slot)
		rec.repeated++
		t.totalRepeated++
		t.Types.ObserveClass(ev, true)
		return true
	}
	t.Types.ObserveClass(ev, false)
	if int(rec.n) >= t.limit() {
		rec.full = true
		rec.dropped++
		return false
	}
	rec.insert(slot, k)
	return false
}

// limit returns the effective per-instruction instance cap.
func (t *Tracker) limit() int {
	if t.MaxInstances == 0 {
		return DefaultMaxInstances
	}
	return t.MaxInstances
}

// Totals

// DynamicInstructions returns the number of instructions observed.
func (t *Tracker) DynamicInstructions() uint64 { return t.totalDyn }

// RepeatedInstructions returns the number classified as repeated.
func (t *Tracker) RepeatedInstructions() uint64 { return t.totalRepeated }

// RepeatedPercent returns the paper's Table 1 "Repeat (%)".
func (t *Tracker) RepeatedPercent() float64 {
	return pct(t.totalRepeated, t.totalDyn)
}

// StaticExecuted returns the number of distinct static instructions
// observed (paper: "Executed").
func (t *Tracker) StaticExecuted() int {
	n := 0
	for i := range t.recs {
		if t.recs[i].dyn > 0 {
			n++
		}
	}
	return n
}

// StaticRepeated returns the number of static instructions with at
// least one repeated dynamic instance (paper: "Repeated").
func (t *Tracker) StaticRepeated() int {
	n := 0
	for i := range t.recs {
		if t.recs[i].repeated > 0 {
			n++
		}
	}
	return n
}

// UniqueRepeatableInstances returns the count of buffered instances
// that were repeated at least once (Table 2 "Count") and the average
// number of repeats per such instance (Table 2 "Avg. Repeats").
func (t *Tracker) UniqueRepeatableInstances() (count uint64, avgRepeats float64) {
	for i := range t.recs {
		t.recs[i].eachRepeated(func(uint32) { count++ })
	}
	if count > 0 {
		avgRepeats = float64(t.totalRepeated) / float64(count)
	}
	return count, avgRepeats
}

// StaticCoverage computes Figure 1: for each target fraction of the
// total dynamic repetition (in percent), the percentage of *repeated
// static instructions* (ranked by contribution) needed to cover it.
func (t *Tracker) StaticCoverage(targets []float64) []float64 {
	var contribs []uint64
	for i := range t.recs {
		if t.recs[i].repeated > 0 {
			contribs = append(contribs, t.recs[i].repeated)
		}
	}
	return coverageCurve(contribs, t.totalRepeated, targets)
}

// InstanceBuckets computes Figure 3: the share of total dynamic
// repetition contributed by static instructions grouped by how many
// unique repeatable instances they generate. Buckets: 1, 2-10,
// 11-100, 101-1000, >1000.
func (t *Tracker) InstanceBuckets() BucketShares {
	var b BucketShares
	for i := range t.recs {
		rec := &t.recs[i]
		if rec.repeated == 0 {
			continue
		}
		uniq := 0
		rec.eachRepeated(func(uint32) { uniq++ })
		switch {
		case uniq <= 1:
			b.One += rec.repeated
		case uniq <= 10:
			b.UpTo10 += rec.repeated
		case uniq <= 100:
			b.UpTo100 += rec.repeated
		case uniq <= 1000:
			b.UpTo1000 += rec.repeated
		default:
			b.Over1000 += rec.repeated
		}
	}
	b.total = t.totalRepeated
	return b
}

// BucketShares is the Figure 3 histogram (absolute repeat counts).
type BucketShares struct {
	One, UpTo10, UpTo100, UpTo1000, Over1000 uint64

	total uint64
}

// Percents returns the five bucket shares as percentages of all
// repetition, ordered [1, 2-10, 11-100, 101-1000, >1000].
func (b BucketShares) Percents() [5]float64 {
	return [5]float64{
		pct(b.One, b.total), pct(b.UpTo10, b.total), pct(b.UpTo100, b.total),
		pct(b.UpTo1000, b.total), pct(b.Over1000, b.total),
	}
}

// InstanceCoverage computes Figure 4: for each target fraction of
// total repetition, the percentage of unique repeatable instances
// (ranked by repeat count) needed to cover it.
func (t *Tracker) InstanceCoverage(targets []float64) []float64 {
	// Histogram over repeat counts avoids materializing millions of
	// instances.
	hist := make(map[uint32]uint64)
	var totalInstances uint64
	for i := range t.recs {
		t.recs[i].eachRepeated(func(c uint32) {
			hist[c-1]++ // count-1 repeats
			totalInstances++
		})
	}
	if totalInstances == 0 {
		return make([]float64, len(targets))
	}
	repeats := make([]uint32, 0, len(hist))
	for r := range hist {
		repeats = append(repeats, r)
	}
	sort.Slice(repeats, func(i, j int) bool { return repeats[i] > repeats[j] })

	out := make([]float64, len(targets))
	var cum, used uint64
	ti := 0
	for _, r := range repeats {
		if ti >= len(targets) {
			break
		}
		cnt := hist[r]
		// Within one repeat-count class, instances contribute evenly;
		// consume as many as needed for each crossed target.
		for ti < len(targets) {
			need := uint64(targets[ti] / 100 * float64(t.totalRepeated))
			if cum+cnt*uint64(r) < need {
				break
			}
			rem := need - cum
			k := (rem + uint64(r) - 1) / uint64(r) // instances from this class
			if k > cnt {
				// Float rounding in need can demand a fraction of an
				// instance beyond the class population; never report
				// more instances than the class holds (Figure 4 must
				// top out at exactly 100%).
				k = cnt
			}
			out[ti] = 100 * float64(used+k) / float64(totalInstances)
			ti++
		}
		cum += cnt * uint64(r)
		used += cnt
	}
	for ; ti < len(targets); ti++ {
		out[ti] = 100
	}
	return out
}

// coverageCurve sorts contributions descending and reports, for each
// target percentage of total, the percentage of contributors needed.
func coverageCurve(contribs []uint64, total uint64, targets []float64) []float64 {
	out := make([]float64, len(targets))
	if total == 0 || len(contribs) == 0 {
		return out
	}
	sort.Slice(contribs, func(i, j int) bool { return contribs[i] > contribs[j] })
	var cum uint64
	ti := 0
	for i, c := range contribs {
		cum += c
		for ti < len(targets) && float64(cum) >= targets[ti]/100*float64(total) {
			out[ti] = 100 * float64(i+1) / float64(len(contribs))
			ti++
		}
		if ti >= len(targets) {
			break
		}
	}
	for ; ti < len(targets); ti++ {
		out[ti] = 100
	}
	return out
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Name identifies the tracker in observability output.
func (t *Tracker) Name() string { return "repetition" }
