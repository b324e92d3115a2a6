// Package reuse implements the dynamic instruction reuse buffer of
// Sodani & Sohi (ISCA '97), scheme Sv: a PC-indexed set-associative
// buffer whose entries hold an instruction's operand values and
// result. An instruction whose PC and operand values match a valid
// entry is *reused* (its "execution" becomes a table lookup). Load
// entries are invalidated by stores to their address, preserving
// memory consistency. Table 10 of the paper measures how much of the
// repetition census an 8K-entry 4-way buffer captures.
//
// Layout: the buffer stores only the sets a program can reach. A
// program of W text words touches at most W of a geometry's S sets, so
// the buffer keeps min(S, W) of them and indexes set
// ((pc-program.TextBase)>>2) mod S. That is a relabeling of the
// hardware's (pc>>2) mod S: two instructions share a set under one
// exactly when they share it under the other, so every hit, victim
// choice, Random draw and invalidation is the same, and a 64K-entry
// buffer over a 2K-word program costs what the program can fill.
// Entries and Sets still report the configured geometry.
//
// All stored sets live in one contiguous entry slice (set s occupies
// entries[s*assoc : (s+1)*assoc]), and store invalidation uses a
// bounded index — a power-of-two bucket array whose buckets head
// doubly-linked chains threaded through the load entries themselves.
// A load entry is linked while it is valid and unlinked when it is
// invalidated or evicted, so the index never holds more nodes than
// the buffer holds entries (the map it replaces grew without bound
// between stores).
package reuse

import (
	"repro/internal/cpu"
	"repro/internal/program"
)

// Default geometry from the paper: 8K entries, 4-way set associative.
const (
	DefaultEntries = 8192
	DefaultAssoc   = 4
)

// noEntry terminates the intrusive address chains.
const noEntry = int32(-1)

// tag is the hot half of an entry, packed 32 bytes so a whole 4-way
// set spans exactly two cache lines. It holds everything every access
// touches: the probe identity (pc/in1/in2), the stored result a hit
// reads, and the lru stamp the replacement scan reads on a miss.
// pc == 0 marks an invalid entry (0 is below the text base, so no
// real instruction has it). Only the load-invalidation machinery
// (address + chain links) is cold and lives in the parallel entries
// slice.
type tag struct {
	pc       uint32
	in1, in2 uint32
	flags    uint32 // bit 0: isLoad
	result   uint32
	aux      uint32
	lru      uint64
}

// entry is the cold half: the invalidation-chain node, meaningful
// only while the entry is a valid load.
type entry struct {
	addr         uint32 // word-aligned load address
	nextA, prevA int32
}

// Buffer is a reuse buffer.
type Buffer struct {
	tags    []tag   // nsets*assoc, contiguous; probe-path identity
	entries []entry // parallel cold halves
	assoc   int
	sets    int // configured set count
	nsets   int // stored set count: min(sets, text words), at least 1
	setMask int // nsets-1 when nsets is a power of two, else -1
	policy  Policy

	clock uint64
	rng   uint64 // Random-policy xorshift state (seeded, deterministic)

	// addrHead[bucket] heads the chain of valid load entries whose
	// word address hashes to bucket; len(addrHead) is a power of two.
	addrHead  []int32
	addrShift uint

	attempts        uint64
	hits            uint64
	hitsRepeated    uint64
	hitsNonRepeated uint64
	loadInv         uint64
}

// New creates a buffer for a text segment of words instructions at
// program.TextBase, with the given total entries and associativity
// (zero values select the paper's 8K / 4-way configuration) and the
// paper's LRU replacement. When entries is not a multiple of assoc the
// capacity is rounded *up* to the next multiple, never silently
// truncated (8192/3 is 2731 sets = 8193 entries, not 8190): a geometry
// sweep must always get at least the capacity it asked for. Entries
// reports the effective capacity.
func New(entries, assoc, words int) *Buffer {
	return NewPolicy(entries, assoc, LRU, words)
}

// NewPolicy is New with an explicit replacement policy (the sweep's
// policy axis). An invalid policy falls back to LRU; callers that
// accept policy input should validate with ParsePolicy/Policy.Valid
// first.
func NewPolicy(entries, assoc int, policy Policy, words int) *Buffer {
	if entries == 0 {
		entries = DefaultEntries
	}
	if assoc == 0 {
		assoc = DefaultAssoc
	}
	if !policy.Valid() {
		policy = LRU
	}
	sets := max((entries+assoc-1)/assoc, 1)
	nsets := max(min(sets, words), 1)
	stored := nsets * assoc
	b := &Buffer{
		tags:    make([]tag, stored),
		entries: make([]entry, stored),
		assoc:   assoc,
		sets:    sets,
		nsets:   nsets,
		setMask: -1,
		policy:  policy,
		rng:     rngSeed(sets*assoc, assoc),
	}
	if nsets&(nsets-1) == 0 {
		b.setMask = nsets - 1
	}
	// One bucket per stored entry (rounded up to a power of two) keeps
	// the chains short: each valid load occupies exactly one chain node.
	nbuckets := 1
	bits := uint(0)
	for nbuckets < stored {
		nbuckets <<= 1
		bits++
	}
	b.addrHead = make([]int32, nbuckets)
	for i := range b.addrHead {
		b.addrHead[i] = noEntry
	}
	b.addrShift = 32 - bits
	return b
}

// setIndex maps pc to its stored set, ((pc-TextBase)>>2) mod sets.
// When every word has a set of its own (nsets is the text length) the
// word index is the set, with no division.
func (b *Buffer) setIndex(pc uint32) int {
	k := int((pc - program.TextBase) >> 2)
	switch {
	case b.setMask >= 0:
		return k & b.setMask
	case k < b.nsets:
		return k
	}
	return k % b.nsets
}

// bucketOf hashes a word-aligned address to its chain bucket
// (multiplicative hash, taking the high bits).
func (b *Buffer) bucketOf(addr uint32) int {
	return int(((addr >> 2) * 2654435761) >> b.addrShift)
}

// linkLoad threads entry ei into its address bucket's chain.
func (b *Buffer) linkLoad(ei int32) {
	e := &b.entries[ei]
	bkt := b.bucketOf(e.addr)
	e.prevA = noEntry
	e.nextA = b.addrHead[bkt]
	if e.nextA != noEntry {
		b.entries[e.nextA].prevA = ei
	}
	b.addrHead[bkt] = ei
}

// unlinkLoad removes entry ei from its address bucket's chain.
func (b *Buffer) unlinkLoad(ei int32) {
	e := &b.entries[ei]
	if e.prevA != noEntry {
		b.entries[e.prevA].nextA = e.nextA
	} else {
		b.addrHead[b.bucketOf(e.addr)] = e.nextA
	}
	if e.nextA != noEntry {
		b.entries[e.nextA].prevA = e.prevA
	}
	e.nextA, e.prevA = noEntry, noEntry
}

// Observe processes one retired instruction, returning whether it hit
// (was reusable). The repeated flag is the repetition census's verdict
// for the same instruction; the buffer splits its hit count on it so
// Table 10's two percentages derive from this one dispatch path.
func (b *Buffer) Observe(ev *cpu.Event, repeated bool) bool {
	b.clock++

	// Stores invalidate load entries on the same word, then are
	// themselves candidates for reuse (a repeated store writes the
	// same value to the same address).
	if ev.IsStore {
		b.invalidate(ev.Addr &^ 3)
	}

	b.attempts++
	in1, in2 := uint32(0), uint32(0)
	if ev.Src1 >= 0 {
		in1 = ev.Src1Val
	}
	if ev.Src2 >= 0 {
		in2 = ev.Src2Val
	}
	res, aux := ev.DstVal, uint32(0)
	if ev.Dst < 0 {
		res = 0
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

	base := b.setIndex(ev.PC) * b.assoc
	set := b.tags[base : base+b.assoc]
	for w := range set {
		tg := &set[w]
		if tg.pc == ev.PC && tg.in1 == in1 && tg.in2 == in2 {
			// Reuse hit: the stored result stands in for execution.
			// (Sanity: with load invalidation in place the stored
			// result always matches; keep the check as an invariant.)
			// Only LRU refreshes the stamp on a touch; FIFO residency
			// is decided purely by insertion order, and Random ignores
			// stamps entirely.
			if tg.result == res && tg.aux == aux {
				if b.policy == LRU {
					tg.lru = b.clock
				}
				b.hits++
				if repeated {
					b.hitsRepeated++
				} else {
					b.hitsNonRepeated++
				}
				return true
			}
			// Result mismatch (should not happen for loads thanks to
			// invalidation; can happen only if memory changed through
			// an untracked path): refresh the entry.
			tg.result, tg.aux = res, aux
			if b.policy == LRU {
				tg.lru = b.clock
			}
			return false
		}
	}

	// Miss: insert, choosing the victim way by the replacement policy.
	// Invalid ways are always filled first; LRU and FIFO then share the
	// min-stamp scan (LRU stamps on touch, FIFO only on insertion) and
	// Random draws from the seeded generator.
	victim := 0
	if b.policy == Random {
		victim = -1
		for w := range set {
			if set[w].pc == 0 {
				victim = w
				break
			}
		}
		if victim < 0 {
			victim = int(b.nextRand() % uint64(len(set)))
		}
	} else {
		for w := 1; w < len(set); w++ {
			if set[w].pc == 0 {
				victim = w
				break
			}
			if set[w].lru < set[victim].lru {
				victim = w
			}
		}
	}
	ei := int32(base + victim)
	tg := &b.tags[ei]
	if tg.pc != 0 && tg.flags&1 != 0 {
		b.unlinkLoad(ei)
	}
	*tg = tag{pc: ev.PC, in1: in1, in2: in2, result: res, aux: aux, lru: b.clock}
	if ev.IsLoad {
		tg.flags = 1
		e := &b.entries[ei]
		e.addr = ev.Addr &^ 3
		b.linkLoad(ei)
	}
	return false
}

// invalidate drops load entries for the given word address. The
// bucket chain holds only valid load entries, so a walk touches at
// most the loads hashing to this bucket.
func (b *Buffer) invalidate(addr uint32) {
	ei := b.addrHead[b.bucketOf(addr)]
	for ei != noEntry {
		next := b.entries[ei].nextA
		if b.entries[ei].addr == addr {
			b.tags[ei].pc = 0 // invalid: no instruction has pc 0
			b.loadInv++
			b.unlinkLoad(ei)
		}
		ei = next
	}
}

// Attempts returns the number of instructions observed.
func (b *Buffer) Attempts() uint64 { return b.attempts }

// Hits returns the number of reuse hits.
func (b *Buffer) Hits() uint64 { return b.hits }

// HitsRepeated returns the reuse hits on instructions the repetition
// census classified as repeated (Table 10's "% of repeated inst"
// numerator).
func (b *Buffer) HitsRepeated() uint64 { return b.hitsRepeated }

// HitsNonRepeated returns the reuse hits on instructions the census
// did not classify as repeated (a hit whose matching census instance
// aged out of the 2000-entry buffer, or one observed before the
// instruction's first census repeat).
func (b *Buffer) HitsNonRepeated() uint64 { return b.hitsNonRepeated }

// LoadInvalidations returns how many load entries stores invalidated.
func (b *Buffer) LoadInvalidations() uint64 { return b.loadInv }

// HitPercent returns hits as a percentage of all observed
// instructions (Table 10, "% of all inst").
func (b *Buffer) HitPercent() float64 {
	if b.attempts == 0 {
		return 0
	}
	return 100 * float64(b.hits) / float64(b.attempts)
}

// Entries returns the buffer's effective capacity (sets × assoc, which
// is the requested entry count rounded up to a multiple of assoc),
// whether or not the program can reach every set.
func (b *Buffer) Entries() int { return b.sets * b.assoc }

// Assoc returns the buffer's associativity.
func (b *Buffer) Assoc() int { return b.assoc }

// Policy returns the buffer's replacement policy.
func (b *Buffer) Policy() Policy { return b.policy }

// Sets returns the buffer's configured set count.
func (b *Buffer) Sets() int { return b.sets }

// Name identifies the buffer in observability output.
func (b *Buffer) Name() string { return "reuse" }
