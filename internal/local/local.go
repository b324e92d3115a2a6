// Package local implements the paper's *local analysis* (Section 5.3):
// within each function activation, dynamic instructions are binned by
// the source of their input data (arguments, global, heap, return
// values, function internals) and by specific task (prologue,
// epilogue, global address calculation, function returns, stack
// pointer operations), under the supersede rule
//
//	argument > return value > (global, heap) > function internal.
//
// It produces Tables 5-7 (overall share, repetition share, and
// propensity per category), the per-function prologue/epilogue
// contributions behind Table 9, and the global-load value-frequency
// coverage of Figure 6.
package local

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Cat is a local-analysis category (one Table 5/6/7 row).
type Cat uint8

// Categories in the paper's row order.
const (
	CatPrologue Cat = iota
	CatEpilogue
	CatFuncInternal
	CatGlbAddrCalc
	CatReturn
	CatSP
	CatRetVal
	CatArgument
	CatGlobal
	CatHeap
	NumCats
)

var catNames = [NumCats]string{
	"prologue", "epilogue", "function internals", "glb_addr_calc",
	"return", "SP", "return values", "arguments", "global", "heap",
}

// String returns the paper's row label.
func (c Cat) String() string {
	if c >= NumCats {
		return "?"
	}
	return catNames[c]
}

// ltag is a value-source tag, ordered by supersede priority. lGAddr is
// a task marker for in-progress global-address computations, not a
// source level; consumed by anything but an address-forming addiu/ori
// it behaves like a function-internal value.
type ltag byte

const (
	lUninit ltag = iota
	lInternal
	lGAddr
	lGlobal
	lHeap
	lRetVal
	lArg
)

// catOfTag maps a source tag to its reporting category.
func catOfTag(t ltag) Cat {
	switch t {
	case lGlobal:
		return CatGlobal
	case lHeap:
		return CatHeap
	case lRetVal:
		return CatRetVal
	case lArg:
		return CatArgument
	default:
		return CatFuncInternal
	}
}

func maxTag(a, b ltag) ltag {
	// lGAddr only survives through the dedicated address-forming
	// path; in a generic merge it degrades to internal.
	if a == lGAddr {
		a = lInternal
	}
	if b == lGAddr {
		b = lInternal
	}
	if a > b {
		return a
	}
	return b
}

// frame is one function activation's local context.
type frame struct {
	fn        *program.Func
	regs      [cpu.NumRegs]ltag
	uninit    [cpu.NumRegs]bool // not yet written in this activation
	saves     []uint32          // stack addresses written by the prologue
	savedRegs [cpu.NumRegs]ltag // caller tags to restore on return
	pe        *perFuncPE        // cached Table 9 record for fn
}

// savedAt reports whether the prologue saved a register at addr. The
// handful of prologue stores per activation makes a linear scan over
// one small slice cheaper than the per-activation map it replaces.
func (fr *frame) savedAt(addr uint32) bool {
	for _, a := range fr.saves {
		if a == addr {
			return true
		}
	}
	return false
}

// loadSite tracks the value-frequency histogram for one static load
// from global or heap memory (Figure 6).
type loadSite struct {
	// values maps a loaded value to its index in counts; the
	// indirection makes the common case (a value seen before) one map
	// lookup plus a slice increment, and the last-value cache below
	// skips even that when a site keeps delivering the same value —
	// which is precisely the repetition Figure 6 measures.
	values map[uint32]uint32
	counts []uint64
	last   uint32 // last value observed; valid only when counts is non-empty
	lastIx uint32 // its index in counts
	full   bool
}

// maxLoadValues bounds the tracked distinct values per load site.
const maxLoadValues = 4096

// perFuncPE is per-function prologue+epilogue accounting (Table 9).
type perFuncPE struct {
	fn       *program.Func
	total    uint64
	repeated uint64
}

// Analysis is the local analysis.
type Analysis struct {
	// Counting gates the statistics; activation frames and value tags
	// always update so the within-function context is correct when
	// the measurement window opens mid-run.
	Counting bool

	image    *program.Image
	heapBase uint32
	shadow   *mem.Shadow // stack value tags

	stack []frame
	root  frame

	overall  [NumCats]uint64
	repeated [NumCats]uint64

	peByFunc map[string]*perFuncPE
	// loadSites is dense over the text segment, sized once from the
	// image: loadSites[(pc-program.TextBase)>>2] (nil = load site never
	// observed).
	loadSites []*loadSite
}

// New creates the analysis for one program image.
func New(im *program.Image) *Analysis {
	a := &Analysis{
		image:     im,
		heapBase:  im.HeapBase(),
		shadow:    mem.NewShadow(),
		peByFunc:  make(map[string]*perFuncPE),
		loadSites: make([]*loadSite, im.StaticInstructions()),
	}
	a.root = newFrame(nil, 0)
	return a
}

func newFrame(fn *program.Func, nargs int) frame {
	var fr frame
	fr.fn = fn
	for r := 0; r < cpu.NumRegs; r++ {
		fr.uninit[r] = true
		fr.regs[r] = lUninit
	}
	for i := 0; i < nargs && i < 4; i++ {
		fr.uninit[isa.RegA0+i] = false
		fr.regs[isa.RegA0+i] = lArg
	}
	for _, r := range []int{isa.RegZero, isa.RegSP, isa.RegGP} {
		fr.uninit[r] = false
		fr.regs[r] = lInternal
	}
	return fr
}

func (a *Analysis) cur() *frame {
	if len(a.stack) == 0 {
		return &a.root
	}
	return &a.stack[len(a.stack)-1]
}

// OnCall enters a new activation.
func (a *Analysis) OnCall(ev *cpu.CallEvent) {
	nargs := 0
	fn := ev.Callee
	if fn != nil {
		nargs = fn.NArgs
	}
	fr := newFrame(fn, nargs)
	fr.savedRegs = a.cur().regs
	// Stack-passed arguments: tag the incoming slots so loads of
	// argument 5.. classify as arguments.
	for i := 4; i < nargs && i < cpu.MaxTrackedArgs; i++ {
		a.shadow.Set(ev.SP+uint32(4*i), byte(lArg))
	}
	a.stack = append(a.stack, fr)
}

// OnReturn leaves the innermost activation: the caller's tags are
// restored and $v0/$v1 become return-value slices.
func (a *Analysis) OnReturn(ev *cpu.RetEvent) {
	if len(a.stack) == 0 {
		return
	}
	fr := a.stack[len(a.stack)-1]
	a.stack = a.stack[:len(a.stack)-1]
	c := a.cur()
	c.regs = fr.savedRegs
	c.regs[isa.RegV0] = lRetVal
	c.regs[isa.RegV1] = lRetVal
	c.uninit[isa.RegV0] = false
	c.uninit[isa.RegV1] = false
}

// Observe categorizes one retired instruction.
func (a *Analysis) Observe(ev *cpu.Event, repeated bool) {
	fr := a.cur()
	cat := a.classify(ev, fr)
	if !a.Counting {
		return
	}
	a.overall[cat]++
	if repeated {
		a.repeated[cat]++
	}
	if cat == CatPrologue || cat == CatEpilogue {
		pe := fr.pe
		if pe == nil {
			// Resolve and cache the function's Table 9 record on the
			// activation so later prologue/epilogue instructions skip
			// the by-name lookup.
			name := "?"
			var fn *program.Func
			if fr.fn != nil {
				name = fr.fn.Name
				fn = fr.fn
			}
			pe = a.peByFunc[name]
			if pe == nil {
				pe = &perFuncPE{fn: fn}
				a.peByFunc[name] = pe
			}
			fr.pe = pe
		}
		pe.total++
		if repeated {
			pe.repeated++
		}
	}
}

// classify bins the instruction and propagates tags, then marks the
// written destination(s) as initialized in this activation. The
// marking runs after binning (classifyTag's prologue test reads the
// pre-write uninit state), which classifyTag's callees must not
// shortcut.
func (a *Analysis) classify(ev *cpu.Event, fr *frame) Cat {
	cat := a.classifyTag(ev, fr)
	if ev.Dst > 0 {
		fr.uninit[ev.Dst] = false
	}
	if ev.Aux > 0 {
		fr.uninit[ev.Aux] = false
	}
	return cat
}

// classifyTag is classify's binning body.
func (a *Analysis) classifyTag(ev *cpu.Event, fr *frame) Cat {
	in := ev.Inst
	op := in.Op

	switch {
	case op == isa.OpJR && in.Rs == isa.RegRA:
		return CatReturn

	case ev.IsStore:
		dataTag := fr.regs[ev.Src2]
		a.shadow.Set(ev.Addr, byte(dataTag))
		if fr.uninit[ev.Src2] {
			// Saving a not-yet-written (callee-saved or $ra)
			// register: prologue.
			if !fr.savedAt(ev.Addr) {
				fr.saves = append(fr.saves, ev.Addr)
			}
			return CatPrologue
		}
		return catOfTag(dataTag)

	case ev.IsLoad:
		if fr.savedAt(ev.Addr) {
			// Reloading a prologue-saved register: epilogue. The
			// restored register belongs to the caller; its tag is
			// re-established by OnReturn.
			fr.regs[ev.Dst] = lInternal
			return CatEpilogue
		}
		// A load is binned by the origin of the *value* it delivers
		// ("data loaded from the data segment are tagged as global"):
		// the address computation's slice is carried by the
		// address-forming instructions themselves.
		var t ltag
		switch {
		case ev.Addr >= program.DataBase && ev.Addr < a.heapBase:
			t = lGlobal
			a.trackLoad(ev)
		case ev.Addr >= a.heapBase && ev.Addr < program.StackLimit:
			t = lHeap
			a.trackLoad(ev)
		default:
			t = ltag(a.shadow.Get(ev.Addr))
			if t == lGAddr {
				t = lInternal
			}
		}
		fr.setReg(ev.Dst, t)
		return catOfTag(t)

	case op == isa.OpADDIU && in.Rs == isa.RegSP && in.Rt == isa.RegSP:
		// Stack frame allocation / deallocation.
		if in.Imm < 0 {
			return CatPrologue
		}
		return CatEpilogue

	case ev.Src1 == isa.RegSP || ev.Src2 == isa.RegSP:
		// Computing on the stack pointer (e.g. the address of a
		// local).
		fr.setReg(ev.Dst, lInternal)
		return CatSP

	case op == isa.OpLUI && a.isDataSegAddrHigh(uint32(in.Imm)):
		fr.setReg(ev.Dst, lGAddr)
		return CatGlbAddrCalc

	case (op == isa.OpADDIU || op == isa.OpORI) && ev.Src1 >= 0 && fr.regs[ev.Src1] == lGAddr:
		// Completing a lui/addiu global-address pair.
		fr.setReg(ev.Dst, lGAddr)
		return CatGlbAddrCalc

	case op == isa.OpADDIU && in.Rs == isa.RegGP:
		// $gp-relative address formation.
		fr.setReg(ev.Dst, lGAddr)
		return CatGlbAddrCalc

	case op == isa.OpSYSCALL:
		t := maxTag(fr.regs[ev.Src1], fr.regs[ev.Src2])
		// Values delivered by the OS behave like returned values.
		fr.setReg(ev.Dst, lRetVal)
		return catOfTag(t)

	default:
		t := lUninit
		if ev.Src1 >= 0 {
			t = maxTag(t, fr.regs[ev.Src1])
		}
		if ev.Src2 >= 0 {
			t = maxTag(t, fr.regs[ev.Src2])
		}
		if isa.HasImmediateInput(op) || (ev.Src1 < 0 && ev.Src2 < 0) {
			t = maxTag(t, lInternal)
		}
		fr.setReg(ev.Dst, t)
		if ev.Aux >= 0 {
			fr.setReg(ev.Aux, t)
		}
		return catOfTag(t)
	}
}

func (fr *frame) setReg(r int16, t ltag) {
	if r > 0 {
		fr.regs[r] = t
	}
}

// isDataSegAddrHigh reports whether a lui immediate forms the high
// half of a data-segment address.
func (a *Analysis) isDataSegAddrHigh(imm uint32) bool {
	hi := imm << 16
	end := program.DataBase + uint32(len(a.image.Data)) + 0x10000
	return hi >= program.DataBase&0xffff0000 && hi < end
}

// trackLoad records the loaded value for Figure 6.
func (a *Analysis) trackLoad(ev *cpu.Event) {
	idx := (ev.PC - program.TextBase) >> 2
	site := a.loadSites[idx]
	if site == nil {
		site = &loadSite{values: make(map[uint32]uint32, 4)}
		a.loadSites[idx] = site
	}
	v := ev.MemVal
	if len(site.counts) > 0 && site.last == v {
		site.counts[site.lastIx]++
		return
	}
	if i, seen := site.values[v]; seen {
		site.counts[i]++
		site.last, site.lastIx = v, i
		return
	}
	if len(site.counts) >= maxLoadValues {
		site.full = true
		return
	}
	i := uint32(len(site.counts))
	site.values[v] = i
	site.counts = append(site.counts, 1)
	site.last, site.lastIx = v, i
}

// Result carries Tables 5-7.
type Result struct {
	OverallPct    [NumCats]float64 // Table 5
	RepeatedPct   [NumCats]float64 // Table 6
	PropensityPct [NumCats]float64 // Table 7
	Counts        [NumCats]uint64
}

// Result computes the category percentages.
func (a *Analysis) Result() Result {
	var r Result
	var total, totalRep uint64
	for c := Cat(0); c < NumCats; c++ {
		total += a.overall[c]
		totalRep += a.repeated[c]
	}
	for c := Cat(0); c < NumCats; c++ {
		r.Counts[c] = a.overall[c]
		r.OverallPct[c] = pct(a.overall[c], total)
		r.RepeatedPct[c] = pct(a.repeated[c], totalRep)
		r.PropensityPct[c] = pct(a.repeated[c], a.overall[c])
	}
	return r
}

// PERow is one Table 9 contributor.
type PERow struct {
	Name     string
	Size     int // static instructions (paper shows this per function)
	Repeated uint64
}

// TopPrologueEpilogue returns the top-n contributors to
// prologue+epilogue repetition and the fraction of all such repetition
// they cover (Table 9).
func (a *Analysis) TopPrologueEpilogue(n int) (rows []PERow, coveragePct float64) {
	var all []PERow
	var total uint64
	for name, pe := range a.peByFunc {
		size := 0
		if pe.fn != nil {
			size = pe.fn.Size()
		}
		all = append(all, PERow{Name: name, Size: size, Repeated: pe.repeated})
		total += pe.repeated
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Repeated != all[j].Repeated {
			return all[i].Repeated > all[j].Repeated
		}
		return all[i].Name < all[j].Name
	})
	var covered uint64
	for i := 0; i < n && i < len(all); i++ {
		rows = append(rows, all[i])
		covered += all[i].Repeated
	}
	return rows, pct(covered, total)
}

// TopLoadValueCoverage computes Figure 6: for k = 1..maxK, the share
// of global/heap load repetition covered by each load site's k most
// frequent values.
func (a *Analysis) TopLoadValueCoverage(maxK int) []float64 {
	covered := make([]uint64, maxK)
	var total uint64
	for _, site := range a.loadSites {
		if site == nil {
			continue
		}
		counts := make([]uint64, 0, len(site.counts))
		for _, n := range site.counts {
			if n >= 2 {
				counts = append(counts, n-1)
			}
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		for i := 0; i < maxK && i < len(counts); i++ {
			covered[i] += counts[i]
		}
		for _, n := range counts {
			total += n
		}
	}
	out := make([]float64, maxK)
	var cum uint64
	for i := 0; i < maxK; i++ {
		cum += covered[i]
		out[i] = pct(cum, total)
	}
	return out
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Name identifies the analysis in observability output.
func (a *Analysis) Name() string { return "local" }
