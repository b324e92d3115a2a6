package reuse

import (
	"testing"

	"repro/internal/program"
)

func TestGeometryRoundUp(t *testing.T) {
	cases := []struct {
		entries, assoc        int
		wantEntries, wantSets int
	}{
		{0, 0, DefaultEntries, DefaultEntries / DefaultAssoc}, // defaults
		{8192, 4, 8192, 2048}, // exact
		{8192, 3, 8193, 2731}, // rounds up, never 8190
		{5, 4, 8, 2},          // small, rounds up
		{1, 1, 1, 1},          // degenerate single entry
		{1, 4, 4, 1},          // fewer entries than ways
		{3, 8, 8, 1},          // ditto
	}
	for _, c := range cases {
		b := New(c.entries, c.assoc, testWords)
		if b.Entries() != c.wantEntries || b.Sets() != c.wantSets {
			t.Errorf("New(%d, %d): entries=%d sets=%d, want %d/%d",
				c.entries, c.assoc, b.Entries(), b.Sets(), c.wantEntries, c.wantSets)
		}
		if b.Entries() < c.entries {
			t.Errorf("New(%d, %d): capacity %d below request", c.entries, c.assoc, b.Entries())
		}
		if b.Entries() != b.Sets()*b.Assoc() {
			t.Errorf("New(%d, %d): entries %d != sets*assoc %d", c.entries, c.assoc, b.Entries(), b.Sets()*b.Assoc())
		}
	}
}

// TestDegenerateSingleEntry drives the 1-entry buffer, whose bucket
// array has a single slot and whose addrShift is the full word width
// (a shift Go defines to yield 0, not UB — pin that).
func TestDegenerateSingleEntry(t *testing.T) {
	b := New(1, 1, testWords)
	if b.addrShift != 32 {
		t.Fatalf("addrShift = %d, want 32", b.addrShift)
	}
	if got := b.bucketOf(0xdeadbeec); got != 0 {
		t.Fatalf("bucketOf = %d, want 0", got)
	}
	// A load entry must survive, hit, and invalidate like any other.
	if b.Observe(loadEv(0x400000, 0x10000000, 7), false) {
		t.Error("first load hit")
	}
	if !b.Observe(loadEv(0x400000, 0x10000000, 7), true) {
		t.Error("repeat load missed")
	}
	b.Observe(storeEv(0x400004, 0x10000000, 9), false)
	// The store evicted the load (1 entry total) or invalidated it;
	// either way the next load must miss.
	if b.Observe(loadEv(0x400000, 0x10000000, 9), false) {
		t.Error("load hit after store to same word")
	}
}

// TestNonPow2Sets exercises the modulo set-index path (set count not a
// power of two) with PCs spanning many sets.
func TestNonPow2Sets(t *testing.T) {
	b := New(24, 4, testWords) // 6 sets
	if b.setMask != -1 {
		t.Fatalf("setMask = %d, want -1 for 6 sets", b.setMask)
	}
	for i := uint32(0); i < 64; i++ {
		pc := 0x400000 + i*4
		b.Observe(aluEv(pc, i, i, 2*i), false)
		if !b.Observe(aluEv(pc, i, i, 2*i), true) {
			t.Errorf("pc 0x%x: immediate repeat missed", pc)
		}
	}
}

// TestPow2SetMaskEquivalence pins that the masked fast path indexes
// exactly like the modulo it replaces, and that both relabel the
// hardware's (pc>>2) mod sets (TextBase is a multiple of 8 words).
func TestPow2SetMaskEquivalence(t *testing.T) {
	b := New(32, 4, testWords) // 8 sets, pow2
	if b.setMask != 7 {
		t.Fatalf("setMask = %d, want 7", b.setMask)
	}
	for i := uint32(0); i < 1000; i += 37 {
		pc := 0x400000 + i*4
		if got, want := b.setIndex(pc), int((pc-program.TextBase)>>2)%b.sets; got != want {
			t.Fatalf("setIndex(0x%x) = %d, want %d", pc, got, want)
		}
		if got, want := b.setIndex(pc), int(pc>>2)%b.sets; got != want {
			t.Fatalf("setIndex(0x%x) = %d, hardware set %d", pc, got, want)
		}
	}
}
