// Package program defines the linked program image produced by the
// assembler (and, upstream, the MiniC compiler): the text segment as
// decoded instructions, the initialized data segment, the symbol table,
// and per-function metadata consumed by the analyses.
package program

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Memory layout constants (classic MIPS/SimpleScalar-style map).
const (
	// TextBase is the address of the first instruction.
	TextBase uint32 = 0x00400000
	// DataBase is the start of the initialized data segment.
	DataBase uint32 = 0x10000000
	// GPValue anchors $gp in the middle of the small-data area so that
	// 16-bit signed offsets reach 64 KiB of globals.
	GPValue uint32 = DataBase + 0x8000
	// StackTop is the initial $sp. The stack grows down.
	StackTop uint32 = 0x7fff0000
	// StackLimit bounds stack growth; addresses in [StackLimit,
	// StackTop] are classified as stack by the analyses.
	StackLimit uint32 = 0x7f000000
)

// Func is static metadata for one function, emitted by the assembler's
// .func directive (the MiniC compiler generates these automatically).
type Func struct {
	Name  string
	Entry uint32 // address of the first instruction
	End   uint32 // address one past the last instruction
	NArgs int    // number of declared arguments
}

// Size returns the static size of the function in instructions.
func (f *Func) Size() int { return int(f.End-f.Entry) / 4 }

// Image is a loaded program ready for simulation.
type Image struct {
	// Text holds the decoded instructions; the instruction at address
	// TextBase+4*i is Text[i].
	Text []isa.Inst
	// Data is the initialized data segment, loaded at DataBase.
	// InitializedLen bytes of it come from initializers; the rest
	// (zero-filled .space / .bss-style allocations) is zeroed.
	Data []byte
	// InitializedLen is the number of leading bytes of Data that carry
	// explicit initializers. The global (taint) analysis tags exactly
	// these words as "global initialized data".
	InitializedLen int
	// Entry is the address of the first instruction to execute.
	Entry uint32
	// Symbols maps label names to addresses.
	Symbols map[string]uint32
	// Funcs lists function metadata sorted by entry address.
	Funcs []Func

	funcByEntry map[uint32]*Func
}

// HeapBase returns the first address past the data segment, rounded to a
// page; the simulator's brk starts here.
func (im *Image) HeapBase() uint32 {
	end := DataBase + uint32(len(im.Data))
	return (end + 0xfff) &^ 0xfff
}

// InstAt returns the instruction at address pc, or an error if pc is
// outside the text segment or unaligned.
func (im *Image) InstAt(pc uint32) (isa.Inst, error) {
	if pc%4 != 0 {
		return isa.Inst{}, fmt.Errorf("program: unaligned pc 0x%x", pc)
	}
	i := int(pc-TextBase) / 4
	if pc < TextBase || i >= len(im.Text) {
		return isa.Inst{}, fmt.Errorf("program: pc 0x%x outside text", pc)
	}
	return im.Text[i], nil
}

// Finalize sorts Funcs, fills in their End addresses where the assembler
// left them zero, and builds the entry-point index. It must be called
// once after the image is constructed.
func (im *Image) Finalize() {
	sort.Slice(im.Funcs, func(i, j int) bool { return im.Funcs[i].Entry < im.Funcs[j].Entry })
	textEnd := TextBase + uint32(len(im.Text))*4
	for i := range im.Funcs {
		if im.Funcs[i].End == 0 {
			if i+1 < len(im.Funcs) {
				im.Funcs[i].End = im.Funcs[i+1].Entry
			} else {
				im.Funcs[i].End = textEnd
			}
		}
	}
	im.funcByEntry = make(map[uint32]*Func, len(im.Funcs))
	for i := range im.Funcs {
		im.funcByEntry[im.Funcs[i].Entry] = &im.Funcs[i]
	}
}

// FuncByEntry returns the function whose entry point is pc, or nil.
func (im *Image) FuncByEntry(pc uint32) *Func {
	return im.funcByEntry[pc]
}

// FuncAt returns the function containing address pc, or nil.
func (im *Image) FuncAt(pc uint32) *Func {
	i := sort.Search(len(im.Funcs), func(i int) bool { return im.Funcs[i].Entry > pc })
	if i == 0 {
		return nil
	}
	f := &im.Funcs[i-1]
	if pc >= f.End {
		return nil
	}
	return f
}

// StaticInstructions returns the size of the text segment in
// instructions (the paper's "Total static instructions").
func (im *Image) StaticInstructions() int { return len(im.Text) }
