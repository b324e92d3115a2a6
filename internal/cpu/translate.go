// Basic-block translation cache: the decode-once/execute-many fast
// path of the simulator.
//
// On first execution of a block the translator decodes straight-line
// code into a flat trace of micro-ops. Each micro-op carries a
// pre-built observer Event template (PC, decoded instruction, source/
// destination register *indices*, memory/branch flags, and the
// fall-through NextPC are all resolved at translation time), a
// specialization code dispatched by a tight tagged-union switch, and
// pre-extended immediates / pre-computed branch targets. Executing an
// instruction therefore costs one template copy, one switch dispatch,
// and the value reads — no fetch, no decode, no per-field Event
// assembly.
//
// Blocks are keyed by entry PC in a dense table indexed
// (pc-TextBase)>>2 and are never invalidated: the text segment is
// immutable (there is no path by which simulated code can write it).
// Direct jumps (J/JAL) do not terminate a block — translation follows
// them, chaining hot blocks into superblocks — and conditional
// branches continue on their fall-through path. Branch targets that
// land on an instruction already inside the same block are pre-linked
// to its micro-op index, so tight loops iterate entirely within one
// block without re-dispatch.
//
// Correctness contract: a translated run retires the same instruction
// stream, delivers byte-identical Event/CallEvent/RetEvent sequences,
// and leaves identical machine state (registers, memory, counters,
// fault behavior, and Run budget accounting) as the Step interpreter.
// Micro-ops with no specialization fall back to the interpreter's own
// execute() on a template identical to Step's initial Event, making
// the fallback equivalent by construction. The interpreter runs a
// whole Run only when NoTranslate is set; otherwise the translated loop
// calls Step only where no block exists (a PC outside the text
// segment, counted in Trans.FallbackSteps). Run honors its budget to
// the instruction on both paths, so callers that must act at an exact
// retire count (the watchdog's progress publication, fault injection)
// split the budget and stay translated. The differential harness in
// translate_test.go holds the two paths equal.
package cpu

import (
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/program"
)

// maxBlockOps caps superblock growth. Translation also stops at
// indirect control flow, syscalls, faulting ops, and back-edges.
const maxBlockOps = 256

// Micro-op specialization codes. uGeneric executes through the
// interpreter's execute() — used for rare ops (mult/div, HI/LO moves,
// syscall, break, invalid) where specialization buys nothing.
const (
	uGeneric uint8 = iota
	uADDU
	uSUBU
	uAND
	uOR
	uXOR
	uNOR
	uSLT
	uSLTU
	uSLLV
	uSRLV
	uSRAV
	uSLL
	uSRL
	uSRA
	uADDIU
	uSLTI
	uSLTIU
	uANDI
	uORI
	uXORI
	uLUI
	uLB
	uLBU
	uLH
	uLHU
	uLW
	uSB
	uSH
	uSW
	uBEQ
	uBNE
	uBLEZ
	uBGTZ
	uBLTZ
	uBGEZ
	uJ
	uJAL
	uJR
	uJALR
)

// uop is one translated micro-op.
type uop struct {
	// tmpl is the pre-built Event. For uGeneric ops it is exactly the
	// literal Step constructs (sources/dest -1, NextPC = pc+4); for
	// specialized ops the register indices, memory/branch flags, and
	// static NextPC (fall-through, or the jump target for J/JAL) are
	// filled in at translation time and only the values remain for
	// run time.
	tmpl Event

	code uint8
	rs   uint8 // first source register (Rt for SLL/SRL/SRA)
	rt   uint8 // second source / load destination / store data
	rd   uint8 // ALU destination
	kind isa.Kind

	isSyscall bool // retirement stats: Op == SYSCALL
	isCallRet bool // emits call/return events (JAL, JALR, JR $ra)

	// imm is the pre-extended immediate: sign-extended for ADDIU/
	// loads/stores/SLTI(U), zero-extended for ANDI/ORI/XORI, shifted
	// for LUI, the shift amount for SLL/SRL/SRA, and the return
	// address (pc+4) for JAL/JALR.
	imm uint32

	// target is the pre-computed taken target for conditional
	// branches.
	target uint32

	// callee is the function entered by a uJAL, resolved once at
	// translation time (the target is static and FuncByEntry is a pure
	// lookup over the immutable image). nil when the target is not a
	// known function entry.
	callee *program.Func

	// next / taken are intra-block successor indices (-1 exits the
	// block and re-dispatches on m.PC). next follows fall-through and
	// direct jumps; taken follows a conditional branch's taken edge
	// when its target is pre-linked into this block.
	next  int32
	taken int32
}

// block is one translated superblock.
type block struct {
	ops []uop
}

// transTable is the per-machine block cache, dense over the text
// segment: blocks[i] is the block entered at TextBase+4i (no ops until
// it is first entered). The rest is translation scratch that every
// block reuses: ops holds the block being built, and slot[i] is one
// more than the index in ops of the instruction at TextBase+4i (0 = not
// in the block). A translation allocates only its finished ops, and
// clears only the slots it set.
type transTable struct {
	blocks []block
	ops    []uop // empty, capacity maxBlockOps
	slot   []int32
}

// blockAt returns the translated block entered at pc, translating it
// on first use, or nil when pc does not address a text instruction
// (the caller falls back to Step, which reproduces the fetch fault).
func (m *Machine) blockAt(pc uint32) *block {
	t := m.trans
	if t == nil {
		n := len(m.Image.Text)
		t = &transTable{blocks: make([]block, n), ops: make([]uop, 0, maxBlockOps), slot: make([]int32, n)}
		m.trans = t
	}
	if pc < program.TextBase || pc&3 != 0 {
		return nil
	}
	idx := (pc - program.TextBase) >> 2
	if idx >= uint32(len(t.blocks)) {
		return nil
	}
	b := &t.blocks[idx]
	if b.ops == nil {
		b.ops = t.translate(m.Image, pc)
		m.Trans.Blocks++
	}
	return b
}

// translate decodes the superblock entered at pc, which must address a
// valid text instruction, and returns its micro-ops.
func (t *transTable) translate(im *program.Image, pc uint32) []uop {
	ops := t.ops
loop:
	for len(ops) < maxBlockOps {
		if t.opAt(pc) >= 0 {
			break // back-edge: target already translated in this block
		}
		in, err := im.InstAt(pc)
		if err != nil {
			break // runs off the end of text; Step reproduces the fault
		}
		t.slot[(pc-program.TextBase)>>2] = int32(len(ops)) + 1
		ops = append(ops, translateInst(pc, in))

		last := &ops[len(ops)-1]
		switch in.Op {
		case isa.OpJ, isa.OpJAL:
			if in.Op == isa.OpJAL {
				last.callee = im.FuncByEntry(last.tmpl.NextPC)
			}
			// Direct jump: chain into a superblock at the target.
			pc = last.tmpl.NextPC
		case isa.OpJR, isa.OpJALR, isa.OpSYSCALL, isa.OpBREAK:
			// Indirect control flow and syscalls exit the block
			// (syscalls can halt the machine); BREAK faults.
			last.next = -1
			break loop
		default:
			if last.code == uGeneric && in.Op != isa.OpMULT && in.Op != isa.OpMULTU &&
				in.Op != isa.OpDIV && in.Op != isa.OpDIVU &&
				in.Op != isa.OpMFHI && in.Op != isa.OpMFLO &&
				in.Op != isa.OpMTHI && in.Op != isa.OpMTLO {
				// Invalid instruction: faults at execution; terminate.
				last.next = -1
				break loop
			}
			pc += 4
		}
	}
	t.link(ops)
	for i := range ops {
		t.slot[(ops[i].tmpl.PC-program.TextBase)>>2] = 0
	}
	return slices.Clone(ops)
}

// opAt returns the index in the block being built of the instruction
// at pc, or -1 when the block does not hold it.
func (t *transTable) opAt(pc uint32) int32 {
	i := (pc - program.TextBase) >> 2
	if pc&3 != 0 || i >= uint32(len(t.slot)) {
		return -1
	}
	return t.slot[i] - 1
}

// link resolves intra-block successor indices: fall-through edges,
// chained direct-jump targets, and conditional-branch taken targets
// that landed inside the block.
func (t *transTable) link(ops []uop) {
	for i := range ops {
		op := &ops[i]
		if op.next != -1 { // not a terminator
			op.next = t.opAt(op.tmpl.NextPC)
		}
		op.taken = -1
		if op.tmpl.IsBranch {
			op.taken = t.opAt(op.target)
		}
	}
}

// translateInst builds the micro-op for one decoded instruction. The
// Event template starts as the exact literal Step constructs, then
// specialization moves statically-known fields into it.
func translateInst(pc uint32, in isa.Inst) uop {
	op := uop{
		tmpl: Event{
			PC:     pc,
			Inst:   in,
			Src1:   -1,
			Src2:   -1,
			Dst:    -1,
			Aux:    -1,
			NextPC: pc + 4,
		},
		kind:      isa.OpKind(in.Op),
		isSyscall: in.Op == isa.OpSYSCALL,
		isCallRet: in.Op == isa.OpJAL || in.Op == isa.OpJALR ||
			(in.Op == isa.OpJR && in.Rs == isa.RegRA),
	}

	alu3 := func(code uint8) {
		op.code = code
		op.rs, op.rt, op.rd = in.Rs, in.Rt, in.Rd
		op.tmpl.Src1, op.tmpl.Src2, op.tmpl.Dst = int16(in.Rs), int16(in.Rt), int16(in.Rd)
	}
	shift := func(code uint8) {
		// SLL/SRL/SRA read Rt and shift by the immediate.
		op.code = code
		op.rs, op.rd = in.Rt, in.Rd
		op.imm = uint32(in.Imm)
		op.tmpl.Src1, op.tmpl.Dst = int16(in.Rt), int16(in.Rd)
	}
	immOp := func(code uint8, imm uint32) {
		op.code = code
		op.rs, op.rt = in.Rs, in.Rt
		op.imm = imm
		op.tmpl.Src1, op.tmpl.Dst = int16(in.Rs), int16(in.Rt)
	}
	loadOp := func(code uint8) {
		op.code = code
		op.rs, op.rt = in.Rs, in.Rt
		op.imm = uint32(in.Imm)
		op.tmpl.Src1, op.tmpl.Dst = int16(in.Rs), int16(in.Rt)
		op.tmpl.IsLoad = true
	}
	storeOp := func(code uint8) {
		op.code = code
		op.rs, op.rt = in.Rs, in.Rt
		op.imm = uint32(in.Imm)
		op.tmpl.Src1, op.tmpl.Src2 = int16(in.Rs), int16(in.Rt)
		op.tmpl.IsStore = true
	}
	branch2 := func(code uint8) {
		op.code = code
		op.rs, op.rt = in.Rs, in.Rt
		op.target = uint32(int64(pc) + 4 + int64(in.Imm)*4)
		op.tmpl.Src1, op.tmpl.Src2 = int16(in.Rs), int16(in.Rt)
		op.tmpl.IsBranch = true
	}
	branch1 := func(code uint8) {
		op.code = code
		op.rs = in.Rs
		op.target = uint32(int64(pc) + 4 + int64(in.Imm)*4)
		op.tmpl.Src1 = int16(in.Rs)
		op.tmpl.IsBranch = true
	}

	switch in.Op {
	case isa.OpADDU:
		alu3(uADDU)
	case isa.OpSUBU:
		alu3(uSUBU)
	case isa.OpAND:
		alu3(uAND)
	case isa.OpOR:
		alu3(uOR)
	case isa.OpXOR:
		alu3(uXOR)
	case isa.OpNOR:
		alu3(uNOR)
	case isa.OpSLT:
		alu3(uSLT)
	case isa.OpSLTU:
		alu3(uSLTU)
	case isa.OpSLLV:
		alu3(uSLLV)
	case isa.OpSRLV:
		alu3(uSRLV)
	case isa.OpSRAV:
		alu3(uSRAV)
	case isa.OpSLL:
		shift(uSLL)
	case isa.OpSRL:
		shift(uSRL)
	case isa.OpSRA:
		shift(uSRA)
	case isa.OpADDIU:
		immOp(uADDIU, uint32(in.Imm))
	case isa.OpSLTI:
		immOp(uSLTI, uint32(in.Imm))
	case isa.OpSLTIU:
		immOp(uSLTIU, uint32(in.Imm))
	case isa.OpANDI:
		immOp(uANDI, uint32(in.Imm&0xffff))
	case isa.OpORI:
		immOp(uORI, uint32(in.Imm&0xffff))
	case isa.OpXORI:
		immOp(uXORI, uint32(in.Imm&0xffff))
	case isa.OpLUI:
		// LUI reads no register (the interpreter reports Src1 = -1).
		op.code = uLUI
		op.rt = in.Rt
		op.imm = uint32(in.Imm) << 16
		op.tmpl.Dst = int16(in.Rt)
	case isa.OpLB:
		loadOp(uLB)
	case isa.OpLBU:
		loadOp(uLBU)
	case isa.OpLH:
		loadOp(uLH)
	case isa.OpLHU:
		loadOp(uLHU)
	case isa.OpLW:
		loadOp(uLW)
	case isa.OpSB:
		storeOp(uSB)
	case isa.OpSH:
		storeOp(uSH)
	case isa.OpSW:
		storeOp(uSW)
	case isa.OpBEQ:
		branch2(uBEQ)
	case isa.OpBNE:
		branch2(uBNE)
	case isa.OpBLEZ:
		branch1(uBLEZ)
	case isa.OpBGTZ:
		branch1(uBGTZ)
	case isa.OpBLTZ:
		branch1(uBLTZ)
	case isa.OpBGEZ:
		branch1(uBGEZ)
	case isa.OpJ:
		op.code = uJ
		op.tmpl.NextPC = (pc+4)&0xf0000000 | uint32(in.Imm)<<2
	case isa.OpJAL:
		op.code = uJAL
		op.imm = pc + 4 // return address
		op.tmpl.Dst = int16(isa.RegRA)
		op.tmpl.NextPC = (pc+4)&0xf0000000 | uint32(in.Imm)<<2
	case isa.OpJR:
		op.code = uJR
		op.rs = in.Rs
		op.tmpl.Src1 = int16(in.Rs)
	case isa.OpJALR:
		op.code = uJALR
		op.rs, op.rd = in.Rs, in.Rd
		op.imm = pc + 4
		op.tmpl.Src1, op.tmpl.Dst = int16(in.Rs), int16(in.Rd)
	default:
		// MULT/MULTU/DIV/DIVU, HI/LO moves, SYSCALL, BREAK, invalid:
		// execute through the interpreter's own switch on a template
		// identical to Step's initial Event.
		op.code = uGeneric
	}
	return op
}

// runTranslated is Run's block-execution loop: dispatch the block at
// PC, fall back to single-step interpretation where no block exists
// (non-text PC — reproduces fetch faults exactly).
func (m *Machine) runTranslated(max, start uint64) (uint64, error) {
	budget := max
	if budget == 0 {
		budget = math.MaxUint64
	}
	for !m.Halted && m.Count-start < budget {
		b := m.blockAt(m.PC)
		if b == nil {
			m.Trans.FallbackSteps++
			if err := m.Step(); err != nil {
				return m.Count - start, err
			}
			continue
		}
		if err := m.execBlock(b, start, budget); err != nil {
			return m.Count - start, err
		}
	}
	return m.Count - start, nil
}

// execBlock runs micro-ops from b until the block exits, the budget is
// exhausted, or an op faults. The per-op sequence mirrors Step exactly:
// event from template, execute, $zero reset, retirement bookkeeping,
// PC update, observer dispatch, call events.
func (m *Machine) execBlock(b *block, start, budget uint64) error {
	sink, o := m.sink, m.observer
	i := int32(0)
	for m.Count-start < budget {
		op := &b.ops[i]
		ev := &m.ev
		if sink != nil {
			ev = sink.NextSlot()
		}
		*ev = op.tmpl
		ev.Index = m.Count

		switch op.code {
		case uADDU:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, a+c)
		case uSUBU:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, a-c)
		case uAND:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, a&c)
		case uOR:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, a|c)
		case uXOR:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, a^c)
		case uNOR:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, ^(a | c))
		case uSLT:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			v := uint32(0)
			if int32(a) < int32(c) {
				v = 1
			}
			m.writeDst(ev, op.rd, v)
		case uSLTU:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			v := uint32(0)
			if a < c {
				v = 1
			}
			m.writeDst(ev, op.rd, v)
		case uSLLV:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, c<<(a&31))
		case uSRLV:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, c>>(a&31))
		case uSRAV:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			m.writeDst(ev, op.rd, uint32(int32(c)>>(a&31)))
		case uSLL:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rd, a<<op.imm)
		case uSRL:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rd, a>>op.imm)
		case uSRA:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rd, uint32(int32(a)>>op.imm))
		case uADDIU:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rt, a+op.imm)
		case uSLTI:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			v := uint32(0)
			if int32(a) < int32(op.imm) {
				v = 1
			}
			m.writeDst(ev, op.rt, v)
		case uSLTIU:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			v := uint32(0)
			if a < op.imm {
				v = 1
			}
			m.writeDst(ev, op.rt, v)
		case uANDI:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rt, a&op.imm)
		case uORI:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rt, a|op.imm)
		case uXORI:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			m.writeDst(ev, op.rt, a^op.imm)
		case uLUI:
			m.writeDst(ev, op.rt, op.imm)
		case uLB:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 1); err != nil {
				return err
			}
			v := uint32(int32(int8(m.Mem.LoadByte(addr))))
			ev.MemVal = v
			m.writeDst(ev, op.rt, v)
		case uLBU:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 1); err != nil {
				return err
			}
			v := uint32(m.Mem.LoadByte(addr))
			ev.MemVal = v
			m.writeDst(ev, op.rt, v)
		case uLH:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 2); err != nil {
				return err
			}
			v := uint32(int32(int16(m.Mem.ReadHalf(addr))))
			ev.MemVal = v
			m.writeDst(ev, op.rt, v)
		case uLHU:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 2); err != nil {
				return err
			}
			v := uint32(m.Mem.ReadHalf(addr))
			ev.MemVal = v
			m.writeDst(ev, op.rt, v)
		case uLW:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 4); err != nil {
				return err
			}
			v := m.Mem.ReadWord(addr)
			ev.MemVal = v
			m.writeDst(ev, op.rt, v)
		case uSB:
			a, d := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, d
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 1); err != nil {
				return err
			}
			ev.MemVal = d & 0xff
			m.Mem.StoreByte(addr, byte(d))
		case uSH:
			a, d := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, d
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 2); err != nil {
				return err
			}
			ev.MemVal = d & 0xffff
			m.Mem.WriteHalf(addr, uint16(d))
		case uSW:
			a, d := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, d
			addr := a + op.imm
			ev.Addr = addr
			if err := m.checkAddr(addr, 4); err != nil {
				return err
			}
			ev.MemVal = d
			m.Mem.WriteWord(addr, d)
		case uBEQ:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			if a == c {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uBNE:
			a, c := m.Regs[op.rs], m.Regs[op.rt]
			ev.Src1Val, ev.Src2Val = a, c
			if a != c {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uBLEZ:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			if int32(a) <= 0 {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uBGTZ:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			if int32(a) > 0 {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uBLTZ:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			if int32(a) < 0 {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uBGEZ:
			a := m.Regs[op.rs]
			ev.Src1Val = a
			if int32(a) >= 0 {
				ev.Taken = true
				ev.NextPC = op.target
			}
		case uJ:
			// NextPC pre-resolved in the template; nothing to do.
		case uJAL:
			m.Regs[isa.RegRA] = op.imm
			ev.DstVal = op.imm
		case uJR:
			ev.Src1Val = m.Regs[op.rs]
			ev.NextPC = ev.Src1Val
		case uJALR:
			target := m.Regs[op.rs]
			ev.Src1Val = target
			m.writeDst(ev, op.rd, op.imm)
			ev.NextPC = target
		default: // uGeneric
			if err := m.execute(ev.Inst, ev); err != nil {
				return err
			}
		}

		m.Regs[isa.RegZero] = 0

		m.Count++
		m.Stats.Kinds[op.kind]++
		switch {
		case ev.IsLoad:
			m.Stats.Loads++
		case ev.IsStore:
			m.Stats.Stores++
		case ev.IsBranch:
			m.Stats.Branches++
			if ev.Taken {
				m.Stats.BranchesTaken++
			}
		case op.isSyscall:
			m.Stats.Syscalls++
		}
		m.PC = ev.NextPC

		if o != nil {
			o.OnInst(ev)
		}
		if op.isCallRet && m.callObs != nil {
			switch op.code {
			case uJAL:
				m.emitCall(ev, op.callee)
			case uJR:
				m.emitRet(ev)
			default:
				m.emitCallEvents(ev)
			}
		}

		if ev.Taken {
			i = op.taken
		} else {
			i = op.next
		}
		if i < 0 {
			return nil
		}
	}
	return nil
}

// writeDst mirrors setDst for the specialized micro-ops: a $zero
// destination is architecturally discarded and reported as 0. The
// destination register index is already in the event template.
func (m *Machine) writeDst(ev *Event, r uint8, v uint32) {
	if r != isa.RegZero {
		m.Regs[r] = v
	} else {
		v = 0
	}
	ev.DstVal = v
}
