package reuse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// testWords is the text length the tests build buffers for: every PC
// they observe lies in its first words.
const testWords = 4096

func aluEv(pc, in1, in2, out uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpADDU, Rd: 2, Rs: 4, Rt: 5},
		Src1: 4, Src1Val: in1, Src2: 5, Src2Val: in2,
		Dst: 2, DstVal: out, Aux: -1,
	}
}

func loadEv(pc, addr, val uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpLW, Rt: 2, Rs: 4},
		Src1: 4, Src1Val: addr,
		Dst: 2, DstVal: val, Aux: -1,
		IsLoad: true, Addr: addr, MemVal: val,
	}
}

func storeEv(pc, addr, val uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpSW, Rt: 5, Rs: 4},
		Src1: 4, Src1Val: addr, Src2: 5, Src2Val: val,
		Dst: -1, Aux: -1,
		IsStore: true, Addr: addr, MemVal: val,
	}
}

func TestBasicReuse(t *testing.T) {
	b := New(0, 0, testWords)
	if b.Observe(aluEv(0x400000, 1, 2, 3), false) {
		t.Error("first execution hit")
	}
	if !b.Observe(aluEv(0x400000, 1, 2, 3), true) {
		t.Error("identical execution missed")
	}
	if b.Observe(aluEv(0x400000, 1, 9, 10), false) {
		t.Error("different operands hit")
	}
	if b.Hits() != 1 || b.Attempts() != 3 {
		t.Errorf("hits=%d attempts=%d", b.Hits(), b.Attempts())
	}
}

func TestLoadInvalidation(t *testing.T) {
	b := New(0, 0, testWords)
	b.Observe(loadEv(0x400000, 0x10000000, 7), false)
	if !b.Observe(loadEv(0x400000, 0x10000000, 7), true) {
		t.Error("repeated load missed")
	}
	// A store to the same word invalidates the load entry.
	b.Observe(storeEv(0x400010, 0x10000000, 99), false)
	if b.Observe(loadEv(0x400000, 0x10000000, 99), false) {
		t.Error("load after invalidating store must miss")
	}
	if b.LoadInvalidations() != 1 {
		t.Errorf("invalidations = %d", b.LoadInvalidations())
	}
	// Stores to unrelated addresses leave the entry alone.
	if !b.Observe(loadEv(0x400000, 0x10000000, 99), true) {
		t.Error("reinserted load missed")
	}
	b.Observe(storeEv(0x400010, 0x10000040, 5), false)
	if !b.Observe(loadEv(0x400000, 0x10000000, 99), true) {
		t.Error("unrelated store invalidated the load")
	}
}

func TestSubWordStoreInvalidates(t *testing.T) {
	b := New(0, 0, testWords)
	b.Observe(loadEv(0x400000, 0x10000000, 7), false)
	// Byte store inside the same word.
	sb := storeEv(0x400010, 0x10000002, 1)
	sb.Inst.Op = isa.OpSB
	b.Observe(sb, false)
	if b.Observe(loadEv(0x400000, 0x10000000, 7), false) {
		t.Error("byte store should invalidate the word's load entry")
	}
}

func TestSetConflictEviction(t *testing.T) {
	// 1 set x 2 ways: three PCs mapping to the same set evict LRU.
	b := New(2, 2, testWords)
	b.Observe(aluEv(0x400000, 1, 1, 2), false)
	b.Observe(aluEv(0x400004, 2, 2, 4), false)
	// Touch the first so the second is LRU.
	if !b.Observe(aluEv(0x400000, 1, 1, 2), true) {
		t.Error("entry 1 missing")
	}
	b.Observe(aluEv(0x400008, 3, 3, 6), false) // evicts 0x400004
	if !b.Observe(aluEv(0x400000, 1, 1, 2), true) {
		t.Error("MRU entry evicted")
	}
	if b.Observe(aluEv(0x400004, 2, 2, 4), false) {
		t.Error("LRU entry should have been evicted")
	}
}

func TestHitPercent(t *testing.T) {
	b := New(0, 0, testWords)
	if b.HitPercent() != 0 {
		t.Error("empty buffer hit percent nonzero")
	}
	b.Observe(aluEv(0x400000, 1, 1, 2), false)
	b.Observe(aluEv(0x400000, 1, 1, 2), true)
	if got := b.HitPercent(); got != 50 {
		t.Errorf("hit%% = %v, want 50", got)
	}
}

// Property: a reuse hit never "lies" — replaying a random event stream,
// every hit's stored result equals the event's actual result (the
// consistency the Sv scheme guarantees via invalidation).
func TestReuseNeverStale(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		b := New(64, 4, testWords)
		memory := map[uint32]uint32{}
		for i := 0; i < 2000; i++ {
			pc := uint32(0x400000 + 4*r.Intn(30))
			switch r.Intn(3) {
			case 0: // ALU
				x, y := uint32(r.Intn(8)), uint32(r.Intn(8))
				ev := aluEv(pc, x, y, x+y)
				hitBefore := wouldHit(b, ev)
				got := b.Observe(ev, false)
				if got != hitBefore {
					return false
				}
			case 1: // load
				addr := uint32(0x10000000 + 4*r.Intn(16))
				ev := loadEv(pc, addr, memory[addr])
				b.Observe(ev, false)
			case 2: // store
				addr := uint32(0x10000000 + 4*r.Intn(16))
				v := uint32(r.Intn(100))
				memory[addr] = v
				b.Observe(storeEv(pc, addr, v), false)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// wouldHit checks whether ev would hit without modifying LRU state in a
// way that affects the answer (we call it immediately before Observe).
func wouldHit(b *Buffer, ev *cpu.Event) bool {
	base := b.setIndex(ev.PC) * b.assoc
	for w := 0; w < b.assoc; w++ {
		tg := &b.tags[base+w]
		if tg.pc == ev.PC && tg.in1 == ev.Src1Val && tg.in2 == ev.Src2Val &&
			tg.result == ev.DstVal {
			return true
		}
	}
	return false
}

func TestGeometry(t *testing.T) {
	b := New(0, 0, testWords)
	if b.nsets != DefaultEntries/DefaultAssoc || b.assoc != DefaultAssoc {
		t.Errorf("default geometry %d sets x %d ways", b.nsets, b.assoc)
	}
	if len(b.entries) != DefaultEntries {
		t.Errorf("entry slice holds %d entries, want %d", len(b.entries), DefaultEntries)
	}
	b2 := New(16, 2, testWords)
	if b2.nsets != 8 || b2.assoc != 2 {
		t.Errorf("custom geometry %d sets x %d ways", b2.nsets, b2.assoc)
	}
	// A text shorter than the set count stores one set per word and
	// still reports the configured geometry.
	b3 := New(0, 0, 1000)
	if len(b3.tags) != 1000*DefaultAssoc || len(b3.entries) != 1000*DefaultAssoc {
		t.Errorf("1000-word text stores %d/%d entries, want %d", len(b3.tags), len(b3.entries), 1000*DefaultAssoc)
	}
	if b3.Entries() != DefaultEntries || b3.Sets() != DefaultEntries/DefaultAssoc {
		t.Errorf("1000-word text reports %d entries, %d sets", b3.Entries(), b3.Sets())
	}
}

// TestHitIdentity pins the Table 10 accounting identity on a random
// stream: every hit is split exactly once on the census verdict, and
// hits never exceed attempts.
func TestHitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	b := New(64, 4, testWords)
	memory := map[uint32]uint32{}
	for i := 0; i < 5000; i++ {
		pc := uint32(0x400000 + 4*r.Intn(40))
		repeated := r.Intn(2) == 0
		switch r.Intn(3) {
		case 0:
			x, y := uint32(r.Intn(6)), uint32(r.Intn(6))
			b.Observe(aluEv(pc, x, y, x+y), repeated)
		case 1:
			addr := uint32(0x10000000 + 4*r.Intn(16))
			b.Observe(loadEv(pc, addr, memory[addr]), repeated)
		case 2:
			addr := uint32(0x10000000 + 4*r.Intn(16))
			v := uint32(r.Intn(50))
			memory[addr] = v
			b.Observe(storeEv(pc, addr, v), repeated)
		}
	}
	if b.Hits() != b.HitsRepeated()+b.HitsNonRepeated() {
		t.Errorf("hits %d != repeated %d + non-repeated %d",
			b.Hits(), b.HitsRepeated(), b.HitsNonRepeated())
	}
	if b.Hits() > b.Attempts() {
		t.Errorf("hits %d exceed attempts %d", b.Hits(), b.Attempts())
	}
	if b.Hits() == 0 {
		t.Error("stream produced no hits; identity test is vacuous")
	}
}

// TestInvalidationChainEviction checks the bounded address index stays
// consistent through evictions: a load whose entry is evicted by set
// pressure must not leave a stale chain node behind that a later store
// would trip over.
func TestInvalidationChainEviction(t *testing.T) {
	// Direct-mapped, 2 sets. Loads at set 0, set 1, set 0: the third
	// load evicts the first by set pressure.
	b := New(2, 1, testWords)
	b.Observe(loadEv(0x400000, 0x10000000, 1), false) // set 0
	b.Observe(loadEv(0x400004, 0x10000004, 2), false) // set 1
	b.Observe(loadEv(0x400008, 0x10000008, 3), false) // set 0: evicts the first
	// A store to the evicted load's word finds nothing to invalidate
	// (its chain node was unlinked at eviction); inserting the store
	// itself then evicts the set-0 load.
	b.Observe(storeEv(0x400010, 0x10000000, 9), false) // set 0
	if b.LoadInvalidations() != 0 {
		t.Errorf("invalidations = %d, want 0 (evicted load must not count)", b.LoadInvalidations())
	}
	// The set-1 load is still resident: its store invalidates it.
	b.Observe(storeEv(0x400014, 0x10000004, 9), false) // set 1
	if b.LoadInvalidations() != 1 {
		t.Errorf("invalidations = %d, want 1", b.LoadInvalidations())
	}
	// No load entries remain; every chain must be empty.
	for bkt, head := range b.addrHead {
		if head != noEntry {
			t.Errorf("bucket %d still heads a chain after full invalidation", bkt)
		}
	}
}
