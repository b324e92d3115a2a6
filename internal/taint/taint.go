// Package taint implements the paper's *global analysis* (Section
// 5.1): every value is tagged with the origin of the dataflow slice it
// belongs to, and each dynamic instruction is categorized by the tags
// of its inputs under the supersede rule
//
//	external input > global init data > program internal > uninit.
//
// Tags flow through registers and memory words during execution. The
// analysis reports, per category, the share of all dynamic
// instructions, the share of repeated instructions, and the propensity
// of the category to repeat (Table 3).
package taint

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Tag is a slice-origin category. Higher values supersede lower ones.
type Tag byte

// Categories, ordered by supersede priority (ascending).
const (
	TagUninit Tag = iota
	TagInternal
	TagGlobalInit
	TagExternal
	NumTags
)

// String returns the paper's row label for the tag.
func (t Tag) String() string {
	switch t {
	case TagUninit:
		return "uninit"
	case TagInternal:
		return "internals"
	case TagGlobalInit:
		return "global init data"
	case TagExternal:
		return "external input"
	default:
		return "?"
	}
}

// Analysis is the global dataflow-tag analysis.
type Analysis struct {
	// Counting gates the statistics: tags always propagate (dataflow
	// state must be complete from program start), but instructions
	// are only counted while Counting is true — this implements the
	// paper's skip-then-measure window.
	Counting bool

	regs   [cpu.NumRegs]Tag
	shadow *mem.Shadow

	overall  [NumTags]uint64
	repeated [NumTags]uint64
}

// New creates the analysis for one program run. The entire static data
// segment (including zero-initialized storage, which C initializes) is
// tagged as global initialized data; $sp, $gp and $zero carry
// program-internal values; every other register starts uninitialized.
func New(im *program.Image) *Analysis {
	a := &Analysis{shadow: mem.NewShadow()}
	a.shadow.SetRange(program.DataBase, len(im.Data), byte(TagGlobalInit))
	a.regs[isa.RegZero] = TagInternal
	a.regs[isa.RegSP] = TagInternal
	a.regs[isa.RegGP] = TagInternal
	return a
}

func maxTag(a, b Tag) Tag {
	if a > b {
		return a
	}
	return b
}

// Observe categorizes one retired instruction (repeated says whether
// the repetition tracker classified it as a repeat) and propagates
// tags.
func (a *Analysis) Observe(ev *cpu.Event, repeated bool) {
	var tag Tag

	switch {
	case ev.IsStore:
		// A store's outcome is the stored value: classify by the data
		// register's slice (this is how prologue stores of
		// uninitialized callee-saved registers surface as "uninit",
		// the paper's fourth category). The memory word inherits the
		// value's tag. Sub-word stores tag the whole word — a
		// documented word-granularity approximation.
		tag = a.regs[ev.Src2]
		a.shadow.Set(ev.Addr, byte(tag))

	case ev.IsLoad:
		// A load delivers the *value* stored in memory: its slice is
		// the value's origin, not the address computation's (the
		// address-forming instructions carry their own tags). This is
		// what lets the paper's compress — which hashes external
		// bytes into internally-built tables — show only ~2% external
		// slices.
		tag = Tag(a.shadow.Get(ev.Addr))
		a.setReg(ev.Dst, tag)

	case ev.Inst.Op == isa.OpSYSCALL:
		tag = maxTag(a.regs[ev.Src1], a.regs[ev.Src2])
		switch ev.SysNum {
		case cpu.SysReadChar:
			a.setReg(ev.Dst, TagExternal)
		case cpu.SysReadBlock:
			// Bytes delivered into [a0, a0+count) are external input.
			a.shadow.SetRange(ev.Src2Val, int(int32(ev.DstVal)), byte(TagExternal))
			a.setReg(ev.Dst, TagExternal)
		case cpu.SysSbrk:
			a.setReg(ev.Dst, TagInternal)
		}

	default:
		tag = TagUninit
		if ev.Src1 >= 0 {
			tag = maxTag(tag, a.regs[ev.Src1])
		}
		if ev.Src2 >= 0 {
			tag = maxTag(tag, a.regs[ev.Src2])
		}
		if isa.HasImmediateInput(ev.Inst.Op) || (ev.Src1 < 0 && ev.Src2 < 0) {
			tag = maxTag(tag, TagInternal)
		}
		if ev.Dst >= 0 && ev.Inst.Op != isa.OpSYSCALL {
			a.setReg(ev.Dst, tag)
		}
		if ev.Aux >= 0 {
			a.setReg(ev.Aux, tag)
		}
	}

	if a.Counting {
		a.overall[tag]++
		if repeated {
			a.repeated[tag]++
		}
	}
}

func (a *Analysis) setReg(r int16, tag Tag) {
	if r > 0 { // $zero stays internal
		a.regs[r] = tag
	}
}

// RegTag returns the current tag of register r (testing).
func (a *Analysis) RegTag(r int) Tag { return a.regs[r] }

// MemTag returns the current tag of the word at addr (testing).
func (a *Analysis) MemTag(addr uint32) Tag { return Tag(a.shadow.Get(addr)) }

// Result is one Table 3 row set.
type Result struct {
	// OverallPct is each category's share of all dynamic instructions.
	OverallPct [NumTags]float64
	// RepeatedPct is each category's share of repeated instructions.
	RepeatedPct [NumTags]float64
	// PropensityPct is the fraction of each category's instructions
	// that repeated.
	PropensityPct [NumTags]float64
	// Counts are the raw per-category dynamic instruction counts.
	Counts [NumTags]uint64
}

// Result computes the Table 3 percentages.
func (a *Analysis) Result() Result {
	var r Result
	var total, totalRep uint64
	for c := Tag(0); c < NumTags; c++ {
		total += a.overall[c]
		totalRep += a.repeated[c]
	}
	for c := Tag(0); c < NumTags; c++ {
		r.Counts[c] = a.overall[c]
		r.OverallPct[c] = pct(a.overall[c], total)
		r.RepeatedPct[c] = pct(a.repeated[c], totalRep)
		r.PropensityPct[c] = pct(a.repeated[c], a.overall[c])
	}
	return r
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Name identifies the analysis in observability output.
func (a *Analysis) Name() string { return "taint" }
