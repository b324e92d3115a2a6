// Package vpred implements value prediction, the second hardware
// exploitation avenue the paper's Section 7 discusses (Lipasti &
// Shen's last-value prediction and the stride predictors of the
// contemporaneous literature). It measures how much of the value
// stream the repetition census exposes is actually *predictable* by
// realizable PC-indexed tables:
//
//   - last-value: predict the instruction's previous result
//   - stride: predict previous result + observed stride
//   - hybrid: an oracle choosing the better of the two per instruction
//     (an upper bound for a two-component hybrid with perfect chooser)
package vpred

import (
	"repro/internal/cpu"
	"repro/internal/program"
)

// DefaultEntries matches the reuse buffer's 8K-entry budget so the
// comparison with Table 10 is apples-to-apples.
const DefaultEntries = 8192

type entry struct {
	valid  bool
	pc     uint32
	last   uint32
	stride uint32
	warm   bool // stride established (two fills)
}

// Predictor is a tagged, direct-mapped last-value + stride predictor.
// Like the reuse buffer it stores only the entries a program can
// reach: min(entries, text words) of them, entry
// ((pc-program.TextBase)>>2) mod entries. That relabels the hardware's
// (pc>>2) mod entries: two instructions share an entry under one
// exactly when they share it under the other.
type Predictor struct {
	table []entry
	mask  int // len(table)-1 when the size is a power of two, else -1

	eligible      uint64
	lastCorrect   uint64
	strideCorrect uint64
	hybridCorrect uint64
}

// New creates a predictor with the given table size (0 =
// DefaultEntries) for a text segment of words instructions at
// program.TextBase.
func New(entries, words int) *Predictor {
	if entries == 0 {
		entries = DefaultEntries
	}
	n := max(min(entries, words), 1)
	p := &Predictor{table: make([]entry, n), mask: -1}
	if n&(n-1) == 0 {
		// Power-of-two tables index with a mask instead of a
		// per-observation integer division.
		p.mask = n - 1
	}
	return p
}

// Observe processes one retired instruction. Only instructions that
// produce a register result participate (the value-prediction
// literature predicts result values).
func (p *Predictor) Observe(ev *cpu.Event) {
	if ev.Dst < 0 {
		return
	}
	p.eligible++
	// When every word has an entry of its own the word index is the
	// entry, with no division.
	idx := int((ev.PC - program.TextBase) >> 2)
	switch {
	case p.mask >= 0:
		idx &= p.mask
	case idx >= len(p.table):
		idx %= len(p.table)
	}
	e := &p.table[idx]
	actual := ev.DstVal

	if e.valid && e.pc == ev.PC {
		lastOK := e.last == actual
		strideOK := e.warm && e.last+e.stride == actual
		if lastOK {
			p.lastCorrect++
		}
		if strideOK {
			p.strideCorrect++
		}
		if lastOK || strideOK {
			p.hybridCorrect++
		}
		e.stride = actual - e.last
		e.warm = true
		e.last = actual
		return
	}
	*e = entry{valid: true, pc: ev.PC, last: actual}
}

// Result is the accuracy summary.
type Result struct {
	// EligiblePct is the share of instructions producing a register
	// value (the predictable population).
	EligiblePct float64
	// LastValuePct / StridePct / HybridPct are prediction accuracies
	// over the eligible population.
	LastValuePct float64
	StridePct    float64
	HybridPct    float64
}

// Result computes accuracies; total is the number of instructions
// observed by the run (for the eligible share).
func (p *Predictor) Result(total uint64) Result {
	return Result{
		EligiblePct:  pctv(p.eligible, total),
		LastValuePct: pctv(p.lastCorrect, p.eligible),
		StridePct:    pctv(p.strideCorrect, p.eligible),
		HybridPct:    pctv(p.hybridCorrect, p.eligible),
	}
}

func pctv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Name identifies the predictor in observability output.
func (p *Predictor) Name() string { return "vpred" }
