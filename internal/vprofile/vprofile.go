// Package vprofile implements value profiling in the style of Calder,
// Feller & Eustace (MICRO-30, 1997) — reference [3] of the paper, and
// the "related phenomenon" its total analysis is compared to. Where
// the repetition census keys on (inputs, outputs) pairs, a value
// profile measures *output invariance*: what fraction of a static
// instruction's executions produce its most frequent value(s).
//
// Each profiled instruction gets a classic TNV (top-N-value) table:
// a small array of (value, count) entries with
// replace-the-smallest-on-miss, which converges on the hot values
// without unbounded memory. The tables live in one dense per-PC array
// sized once from the image's text segment, which never changes.
package vprofile

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/program"
)

// TableSize is the TNV entry count per static instruction (Calder et
// al. used small tables; 8 captures the head of the distribution).
const TableSize = 8

type tnvEntry struct {
	value uint32
	count uint64
}

type site struct {
	// used/execs lead so the site's first cache line holds them plus
	// the head of the entry array the match scan walks.
	used    int
	execs   uint64
	entries [TableSize]tnvEntry
}

// observe records one produced value.
func (s *site) observe(v uint32) {
	s.execs++
	for i := 0; i < s.used; i++ {
		if s.entries[i].value == v {
			s.entries[i].count++
			return
		}
	}
	if s.used < TableSize {
		s.entries[s.used] = tnvEntry{value: v, count: 1}
		s.used++
		return
	}
	// Replace the least-frequent entry (the TNV steady-state rule).
	min := 0
	for i := 1; i < TableSize; i++ {
		if s.entries[i].count < s.entries[min].count {
			min = i
		}
	}
	s.entries[min] = tnvEntry{value: v, count: 1}
}

// topShares returns the counts of the k most frequent entries.
func (s *site) topShares(k int) uint64 {
	counts := make([]uint64, 0, s.used)
	for i := 0; i < s.used; i++ {
		counts = append(counts, s.entries[i].count)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	var sum uint64
	for i := 0; i < k && i < len(counts); i++ {
		sum += counts[i]
	}
	return sum
}

// Profiler is the value profiler. Sites live in a dense table indexed
// by (pc-program.TextBase)>>2, sized once from the image — instruction
// addresses are word-aligned within the immutable text segment —
// replacing a map lookup per profiled instruction (the same layout the
// repetition census uses). A site with execs == 0 is an unvisited slot.
type Profiler struct {
	sites []site
}

// New creates an empty profiler for a text segment of words
// instructions at program.TextBase.
func New(words int) *Profiler {
	return &Profiler{sites: make([]site, words)}
}

// Observe profiles the result value of a register-writing instruction.
func (p *Profiler) Observe(ev *cpu.Event) {
	if ev.Dst < 0 {
		return
	}
	p.sites[(ev.PC-program.TextBase)>>2].observe(ev.DstVal)
}

// Result summarizes output invariance.
type Result struct {
	// Sites is the number of profiled static instructions.
	Sites int
	// Top1Pct is Calder's Inv(1): the share of all profiled
	// executions producing their instruction's single most frequent
	// value.
	Top1Pct float64
	// Top4Pct is Inv(4).
	Top4Pct float64
	// InvariantSitesPct is the share of static instructions whose
	// top value covers >= 90% of their executions (the "invariant
	// instruction" population value-profiling targets).
	InvariantSitesPct float64
}

// Result computes the invariance summary.
func (p *Profiler) Result() Result {
	var r Result
	var execs, top1, top4 uint64
	invariant := 0
	for i := range p.sites {
		s := &p.sites[i]
		if s.execs == 0 {
			continue
		}
		r.Sites++
		t1 := s.topShares(1)
		execs += s.execs
		top1 += t1
		top4 += s.topShares(4)
		if float64(t1) >= 0.9*float64(s.execs) {
			invariant++
		}
	}
	if execs > 0 {
		r.Top1Pct = 100 * float64(top1) / float64(execs)
		r.Top4Pct = 100 * float64(top4) / float64(execs)
	}
	if r.Sites > 0 {
		r.InvariantSitesPct = 100 * float64(invariant) / float64(r.Sites)
	}
	return r
}

// Name identifies the profiler in observability output.
func (p *Profiler) Name() string { return "vprofile" }
