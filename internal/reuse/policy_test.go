package reuse

import (
	"math/rand"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", LRU}, // empty selects the paper's default
		{"lru", LRU},
		{"LRU", LRU},
		{"fifo", FIFO},
		{"Fifo", FIFO},
		{"random", Random},
		{"RANDOM", Random},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"mru", "lru ", "plru", "0"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestPolicyStringValid(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, Random} {
		if !p.Valid() {
			t.Errorf("%v not valid", p)
		}
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("String/Parse round trip broke: %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
	if bogus := Policy(99); bogus.Valid() || bogus.String() != "policy(99)" {
		t.Errorf("invalid policy: Valid=%v String=%q", bogus.Valid(), bogus.String())
	}
	if got := PolicyNames(); len(got) != 3 || got[0] != "lru" || got[1] != "fifo" || got[2] != "random" {
		t.Errorf("PolicyNames() = %v", got)
	}
}

func TestNewPolicyFallback(t *testing.T) {
	b := NewPolicy(64, 4, Policy(42), testWords)
	if b.Policy() != LRU {
		t.Errorf("invalid policy fell back to %v, want LRU", b.Policy())
	}
	if New(64, 4, testWords).Policy() != LRU {
		t.Error("New is not LRU")
	}
}

// TestLRUPolicyMatchesNew pins the policy-axis refactor against the
// pre-axis buffer: NewPolicy(..., LRU) and New must agree hit-for-hit
// on an arbitrary event stream, because LRU *is* the paper's buffer.
func TestLRUPolicyMatchesNew(t *testing.T) {
	a, b := New(16, 4, testWords), NewPolicy(16, 4, LRU, testWords)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		pc := 0x400000 + uint32(rng.Intn(64))*4
		in1, in2 := uint32(rng.Intn(4)), uint32(rng.Intn(4))
		ev := aluEv(pc, in1, in2, in1+in2)
		if ha, hb := a.Observe(ev, false), b.Observe(ev, false); ha != hb {
			t.Fatalf("step %d: New hit=%v, NewPolicy(LRU) hit=%v", i, ha, hb)
		}
	}
	if a.Hits() != b.Hits() || a.Attempts() != b.Attempts() {
		t.Errorf("counters diverged: %d/%d vs %d/%d", a.Hits(), a.Attempts(), b.Hits(), b.Attempts())
	}
}

// TestFIFOVsLRUVictims drives the canonical distinguishing sequence
// through a single 2-way set: insert A, insert B, touch A, insert C.
// LRU refreshed A on the touch so it evicts B and a re-probe of A
// hits; FIFO ignored the touch so A (the oldest insertion) is the
// victim and the re-probe misses.
func TestFIFOVsLRUVictims(t *testing.T) {
	const (
		pcA = 0x400000
		pcB = 0x400004
		pcC = 0x400008
	)
	run := func(p Policy) bool {
		b := NewPolicy(2, 2, p, testWords) // one set, two ways
		b.Observe(aluEv(pcA, 1, 1, 2), false)
		b.Observe(aluEv(pcB, 1, 1, 2), false)
		if !b.Observe(aluEv(pcA, 1, 1, 2), false) {
			t.Fatalf("%v: resident A missed", p)
		}
		b.Observe(aluEv(pcC, 1, 1, 2), false)
		return b.Observe(aluEv(pcA, 1, 1, 2), false)
	}
	if !run(LRU) {
		t.Error("LRU evicted the recently touched A")
	}
	if run(FIFO) {
		t.Error("FIFO kept A past its insertion-order turn")
	}
}

// TestRandomDeterministic pins the Random policy's seeded RNG: two
// buffers of the same geometry replay an identical event stream to
// identical per-step outcomes and counters, which is what lets a
// random-policy sweep cell be cached, checkpointed, and reproduced
// byte-identically.
func TestRandomDeterministic(t *testing.T) {
	a := NewPolicy(16, 4, Random, testWords)
	b := NewPolicy(16, 4, Random, testWords)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		pc := 0x400000 + uint32(rng.Intn(64))*4
		in := uint32(rng.Intn(3))
		ev := aluEv(pc, in, in, 2*in)
		if ha, hb := a.Observe(ev, false), b.Observe(ev, false); ha != hb {
			t.Fatalf("step %d: replicas diverged (%v vs %v)", i, ha, hb)
		}
	}
	if a.Hits() == 0 {
		t.Error("stream produced no hits at all")
	}
	if a.Hits() != b.Hits() || a.Attempts() != b.Attempts() {
		t.Errorf("counters diverged: %d/%d vs %d/%d", a.Hits(), a.Attempts(), b.Hits(), b.Attempts())
	}
}

// TestRandomFillsInvalidWaysFirst: random victim selection only kicks
// in once a set is full — while invalid ways remain they are filled in
// order, so warming a set never randomly evicts a live entry.
func TestRandomFillsInvalidWaysFirst(t *testing.T) {
	b := NewPolicy(8, 8, Random, testWords) // one 8-way set
	for i := uint32(0); i < 8; i++ {
		b.Observe(aluEv(0x400000+i*4, 1, 1, 2), false)
	}
	for i := uint32(0); i < 8; i++ {
		if !b.Observe(aluEv(0x400000+i*4, 1, 1, 2), false) {
			t.Errorf("entry %d evicted while the set was still filling", i)
		}
	}
}

// TestRandomEvictsWithinSet: once full, the Random victim is still
// confined to the probed PC's set — an insert into one set never
// disturbs another.
func TestRandomEvictsWithinSet(t *testing.T) {
	b := NewPolicy(8, 2, Random, testWords) // 4 sets × 2 ways
	// Fill set 0 (pc>>2 ≡ 0 mod 4) and set 1 (≡ 1 mod 4).
	s0 := []uint32{0x400000, 0x400040}
	s1 := []uint32{0x400004, 0x400044}
	for _, pc := range append(s0, s1...) {
		b.Observe(aluEv(pc, 1, 1, 2), false)
	}
	// Overflow set 0 repeatedly; set 1 must stay fully resident.
	for i := uint32(0); i < 16; i++ {
		b.Observe(aluEv(0x400080+i*0x40, 1, 1, 2), false)
	}
	for _, pc := range s1 {
		if !b.Observe(aluEv(pc, 1, 1, 2), false) {
			t.Errorf("set-1 entry 0x%x evicted by set-0 pressure", pc)
		}
	}
}
