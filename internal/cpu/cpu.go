// Package cpu implements the functional simulator: a fetch/decode/
// execute loop over a program.Image with a syscall interface and
// observer hooks that feed the repetition and dataflow analyses.
//
// The simulator is purely functional (no pipeline, no delay slots),
// mirroring the paper's use of a SimpleScalar-derived functional
// simulator: the analyses are ISA-level dataflow properties.
//
// Step is the reference interpreter. Run executes through the block
// translation cache (translate.go) and falls back to Step only where
// no block exists, or for the whole run when NoTranslate is set; the
// two paths retire identical event streams.
package cpu

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Extended register indices for the multiply/divide unit; the analyses
// track value tags for these alongside the 32 GPRs.
const (
	RegHI = 32
	RegLO = 33
	// NumRegs is the size of the extended register file.
	NumRegs = 34
)

// Syscall numbers (SPIM-compatible subset plus a block read).
const (
	SysPrintInt  = 1
	SysPrintStr  = 4
	SysSbrk      = 9
	SysExit      = 10
	SysPutChar   = 11
	SysReadChar  = 12
	SysReadBlock = 13
)

// Event describes one retired instruction. The same Event value is
// reused across steps; observers must not retain it.
type Event struct {
	Index uint64   // dynamic instruction number (0-based)
	PC    uint32   // address of the instruction
	Inst  isa.Inst // decoded instruction

	// Register sources actually read, -1 if absent. For loads Src1 is
	// the base register; for stores Src1 is the base and Src2 the data.
	Src1, Src2 int16
	Src1Val    uint32
	Src2Val    uint32

	// Destination register written, -1 if none.
	Dst    int16
	DstVal uint32
	// Aux destination (HI for mult/div, which write both HI and LO).
	Aux    int16
	AuxVal uint32

	// Memory behaviour.
	IsLoad  bool
	IsStore bool
	Addr    uint32 // effective address
	MemVal  uint32 // value loaded or stored (after size extension)

	// Control behaviour.
	IsBranch bool
	Taken    bool
	NextPC   uint32

	// Syscall number when Inst.Op is OpSYSCALL.
	SysNum uint32
}

// Observer receives each retired instruction.
type Observer interface {
	OnInst(ev *Event)
}

// EventSink is an Observer that additionally exposes the storage the
// machine may build the next event in, so an observer that buffers
// events (the core pipeline) receives them without a build-then-copy.
// NextSlot returns scratch space for the upcoming instruction; the
// event only becomes the sink's when the machine passes the same
// pointer to OnInst (an abandoned slot — a faulting instruction — is
// simply reused). The machine has one observer, so an attached sink
// always gets the slot protocol.
type EventSink interface {
	Observer
	NextSlot() *Event
}

// MaxTrackedArgs bounds how many argument values a CallEvent carries.
const MaxTrackedArgs = 8

// CallEvent describes a function call (jal/jalr) after it executed.
type CallEvent struct {
	Index   uint64
	PC      uint32 // address of the call instruction
	Target  uint32 // callee entry
	RetAddr uint32
	Callee  *program.Func // nil if target is not a known function entry
	SP      uint32        // stack pointer at the call
	// Args holds the callee's declared arguments (register args from
	// $a0..$a3, the rest read from the caller's outgoing slots).
	// Valid only when Callee != nil; Args[i] for i >= Callee.NArgs is
	// zero.
	Args [MaxTrackedArgs]uint32
}

// RetEvent describes a function return (jr $ra).
type RetEvent struct {
	Index  uint64
	PC     uint32
	Target uint32 // return target
}

// CallObserver receives call/return events in addition to instructions.
type CallObserver interface {
	OnCall(ev *CallEvent)
	OnReturn(ev *RetEvent)
}

// Counters aggregates retirement statistics the simulator maintains
// for the observability layer: memory traffic, control flow, syscall
// count, and the per-opcode-kind instruction mix. They cover every
// retired instruction (warmup included) and cost a few increments per
// step.
type Counters struct {
	Loads         uint64
	Stores        uint64
	Branches      uint64
	BranchesTaken uint64
	Syscalls      uint64
	// Kinds tallies retired instructions per isa.Kind.
	Kinds [isa.NumKinds]uint64
}

// TransCounters record the translation cache's work. They describe how
// the machine executed, not what it computed, so SnapshotTo leaves them
// out and a restored machine counts from zero.
type TransCounters struct {
	// Blocks is the number of superblocks translated.
	Blocks uint64
	// FallbackSteps is the number of instructions the translated loop
	// handed to Step because no block exists at the PC (a PC outside
	// the text segment, where Step reproduces the fetch fault).
	FallbackSteps uint64
}

// Machine is one simulated CPU with its memory and OS interface.
type Machine struct {
	Image *program.Image
	Mem   *mem.Memory
	Regs  [NumRegs]uint32
	PC    uint32
	Brk   uint32 // heap break, grows via sbrk
	Count uint64 // instructions retired

	// Stats are the retirement counters (see Counters).
	Stats Counters

	Halted   bool
	ExitCode int32

	// Output receives bytes written by print/putchar syscalls.
	Output bytes.Buffer
	// MaxOutput bounds Output growth (0 = 1 MiB default); beyond it
	// output is counted but discarded.
	MaxOutput int

	input []byte
	inPos int

	// NoTranslate forces the Step interpreter instead of the block
	// translation cache (used by the differential harness and as an
	// escape hatch; see translate.go).
	NoTranslate bool

	// Trans counts the translation cache's work (zero when NoTranslate
	// is set).
	Trans TransCounters

	observer Observer
	callObs  CallObserver // observer as a CallObserver, when it is one
	sink     EventSink    // observer as an EventSink, when it is one
	ev       Event
	trans    *transTable
}

// New creates a machine, loads the image, and initializes registers.
func New(im *program.Image, input []byte) *Machine {
	m := &Machine{
		Image: im,
		Mem:   mem.New(),
		PC:    im.Entry,
		Brk:   im.HeapBase(),
		input: input,
	}
	m.Mem.StoreBytes(program.DataBase, im.Data)
	m.Regs[isa.RegSP] = program.StackTop
	m.Regs[isa.RegGP] = program.GPValue
	return m
}

// Attach sets the machine's observer, replacing any earlier one. If it
// also implements CallObserver it receives call/return events, and if
// it implements EventSink the machine builds each event in its slot.
func (m *Machine) Attach(o Observer) {
	m.observer = o
	m.callObs, _ = o.(CallObserver)
	m.sink, _ = o.(EventSink)
}

// InputRemaining returns the number of unread input bytes.
func (m *Machine) InputRemaining() int { return len(m.input) - m.inPos }

// Run executes at most max instructions (all remaining if max == 0),
// returning the number retired. It stops early when the program exits
// or an instruction faults. Run stops after exactly max instructions on
// either path, and a later Run continues where it stopped, so callers
// that need to act at a given retire count (progress publication, fault
// injection) split the budget rather than intercept steps.
func (m *Machine) Run(max uint64) (uint64, error) {
	start := m.Count
	if !m.NoTranslate {
		return m.runTranslated(max, start)
	}
	for !m.Halted && (max == 0 || m.Count-start < max) {
		if err := m.Step(); err != nil {
			return m.Count - start, err
		}
	}
	return m.Count - start, nil
}

// faultf builds a simulation fault annotated with the current PC.
func (m *Machine) faultf(format string, args ...any) error {
	where := ""
	if f := m.Image.FuncAt(m.PC); f != nil {
		where = " in " + f.Name
	}
	return fmt.Errorf("cpu: pc=0x%x%s: %s", m.PC, where, fmt.Sprintf(format, args...))
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return m.faultf("machine is halted")
	}
	in, err := m.Image.InstAt(m.PC)
	if err != nil {
		return m.faultf("fetch: %v", err)
	}

	ev := &m.ev
	if m.sink != nil {
		ev = m.sink.NextSlot()
	}
	*ev = Event{
		Index:  m.Count,
		PC:     m.PC,
		Inst:   in,
		Src1:   -1,
		Src2:   -1,
		Dst:    -1,
		Aux:    -1,
		NextPC: m.PC + 4,
	}

	if err := m.execute(in, ev); err != nil {
		return err
	}

	// $zero is hardwired.
	m.Regs[isa.RegZero] = 0

	m.Count++
	m.Stats.Kinds[isa.OpKind(in.Op)]++
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
	case in.Op == isa.OpSYSCALL:
		m.Stats.Syscalls++
	}
	m.PC = ev.NextPC

	if m.observer != nil {
		m.observer.OnInst(ev)
	}
	// Call/return events follow the instruction event so the observer
	// sees a consistent order.
	if m.callObs != nil {
		m.emitCallEvents(ev)
	}
	return nil
}

// emitCallEvents delivers call/return events for a just-retired jump
// instruction. Shared by the interpreter and the translated path so
// both produce identical observer streams.
func (m *Machine) emitCallEvents(ev *Event) {
	switch ev.Inst.Op {
	case isa.OpJAL, isa.OpJALR:
		m.emitCall(ev, m.Image.FuncByEntry(ev.NextPC))
	case isa.OpJR:
		if ev.Inst.Rs == isa.RegRA {
			m.emitRet(ev)
		}
	}
}

// emitCall delivers the call event with an already-resolved callee.
// A JAL's target is static, so the translated path resolves the
// callee once at translation time and skips the per-call symbol
// lookup; FuncByEntry is a pure function of the immutable image, so
// the pre-resolved value is identical to the per-call lookup.
func (m *Machine) emitCall(ev *Event, callee *program.Func) {
	ce := CallEvent{
		Index:   ev.Index,
		PC:      ev.PC,
		Target:  ev.NextPC,
		RetAddr: ev.PC + 4,
		Callee:  callee,
		SP:      m.Regs[isa.RegSP],
	}
	if ce.Callee != nil {
		n := ce.Callee.NArgs
		if n > MaxTrackedArgs {
			n = MaxTrackedArgs
		}
		for i := 0; i < n; i++ {
			if i < 4 {
				ce.Args[i] = m.Regs[isa.RegA0+i]
			} else {
				ce.Args[i] = m.Mem.ReadWord(ce.SP + uint32(4*i))
			}
		}
	}
	m.callObs.OnCall(&ce)
}

// emitRet delivers the return event for a retired JR $ra.
func (m *Machine) emitRet(ev *Event) {
	re := RetEvent{Index: ev.Index, PC: ev.PC, Target: ev.NextPC}
	m.callObs.OnReturn(&re)
}

// setDst records the destination write. A write targeting $zero is
// architecturally discarded — the register always reads 0 — so the
// event reports DstVal 0, keeping the repetition census and reuse
// buffer keyed on the value consumers can actually observe.
func (m *Machine) setDst(ev *Event, r uint8, v uint32) {
	if r != isa.RegZero {
		m.Regs[r] = v
	} else {
		v = 0
	}
	ev.Dst = int16(r)
	ev.DstVal = v
}

func (m *Machine) src1(ev *Event, r uint8) uint32 {
	ev.Src1 = int16(r)
	ev.Src1Val = m.Regs[r]
	return ev.Src1Val
}

func (m *Machine) src2(ev *Event, r uint8) uint32 {
	ev.Src2 = int16(r)
	ev.Src2Val = m.Regs[r]
	return ev.Src2Val
}

func (m *Machine) execute(in isa.Inst, ev *Event) error {
	switch in.Op {
	case isa.OpADDU:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rs)+m.src2(ev, in.Rt))
	case isa.OpSUBU:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rs)-m.src2(ev, in.Rt))
	case isa.OpAND:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rs)&m.src2(ev, in.Rt))
	case isa.OpOR:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rs)|m.src2(ev, in.Rt))
	case isa.OpXOR:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rs)^m.src2(ev, in.Rt))
	case isa.OpNOR:
		m.setDst(ev, in.Rd, ^(m.src1(ev, in.Rs) | m.src2(ev, in.Rt)))
	case isa.OpSLT:
		v := uint32(0)
		if int32(m.src1(ev, in.Rs)) < int32(m.src2(ev, in.Rt)) {
			v = 1
		}
		m.setDst(ev, in.Rd, v)
	case isa.OpSLTU:
		v := uint32(0)
		if m.src1(ev, in.Rs) < m.src2(ev, in.Rt) {
			v = 1
		}
		m.setDst(ev, in.Rd, v)
	case isa.OpSLLV:
		m.setDst(ev, in.Rd, m.src2(ev, in.Rt)<<(m.src1(ev, in.Rs)&31))
	case isa.OpSRLV:
		m.setDst(ev, in.Rd, m.src2(ev, in.Rt)>>(m.src1(ev, in.Rs)&31))
	case isa.OpSRAV:
		m.setDst(ev, in.Rd, uint32(int32(m.src2(ev, in.Rt))>>(m.src1(ev, in.Rs)&31)))

	case isa.OpSLL:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rt)<<uint(in.Imm))
	case isa.OpSRL:
		m.setDst(ev, in.Rd, m.src1(ev, in.Rt)>>uint(in.Imm))
	case isa.OpSRA:
		m.setDst(ev, in.Rd, uint32(int32(m.src1(ev, in.Rt))>>uint(in.Imm)))

	case isa.OpMULT:
		p := int64(int32(m.src1(ev, in.Rs))) * int64(int32(m.src2(ev, in.Rt)))
		m.Regs[RegLO] = uint32(p)
		m.Regs[RegHI] = uint32(p >> 32)
		ev.Dst, ev.DstVal = RegLO, uint32(p)
		ev.Aux, ev.AuxVal = RegHI, uint32(p>>32)
	case isa.OpMULTU:
		p := uint64(m.src1(ev, in.Rs)) * uint64(m.src2(ev, in.Rt))
		m.Regs[RegLO] = uint32(p)
		m.Regs[RegHI] = uint32(p >> 32)
		ev.Dst, ev.DstVal = RegLO, uint32(p)
		ev.Aux, ev.AuxVal = RegHI, uint32(p>>32)
	case isa.OpDIV:
		a, b := int32(m.src1(ev, in.Rs)), int32(m.src2(ev, in.Rt))
		if b == 0 {
			return m.faultf("integer division by zero")
		}
		var q, r int32
		if a == -1<<31 && b == -1 {
			q, r = a, 0 // wraparound, matches hardware
		} else {
			q, r = a/b, a%b
		}
		m.Regs[RegLO] = uint32(q)
		m.Regs[RegHI] = uint32(r)
		ev.Dst, ev.DstVal = RegLO, uint32(q)
		ev.Aux, ev.AuxVal = RegHI, uint32(r)
	case isa.OpDIVU:
		a, b := m.src1(ev, in.Rs), m.src2(ev, in.Rt)
		if b == 0 {
			return m.faultf("integer division by zero")
		}
		m.Regs[RegLO] = a / b
		m.Regs[RegHI] = a % b
		ev.Dst, ev.DstVal = RegLO, a/b
		ev.Aux, ev.AuxVal = RegHI, a%b

	case isa.OpMFHI:
		ev.Src1, ev.Src1Val = RegHI, m.Regs[RegHI]
		m.setDst(ev, in.Rd, m.Regs[RegHI])
	case isa.OpMFLO:
		ev.Src1, ev.Src1Val = RegLO, m.Regs[RegLO]
		m.setDst(ev, in.Rd, m.Regs[RegLO])
	case isa.OpMTHI:
		v := m.src1(ev, in.Rs)
		m.Regs[RegHI] = v
		ev.Dst, ev.DstVal = RegHI, v
	case isa.OpMTLO:
		v := m.src1(ev, in.Rs)
		m.Regs[RegLO] = v
		ev.Dst, ev.DstVal = RegLO, v

	case isa.OpADDIU:
		m.setDst(ev, in.Rt, m.src1(ev, in.Rs)+uint32(in.Imm))
	case isa.OpSLTI:
		v := uint32(0)
		if int32(m.src1(ev, in.Rs)) < in.Imm {
			v = 1
		}
		m.setDst(ev, in.Rt, v)
	case isa.OpSLTIU:
		v := uint32(0)
		if m.src1(ev, in.Rs) < uint32(in.Imm) {
			v = 1
		}
		m.setDst(ev, in.Rt, v)
	case isa.OpANDI:
		m.setDst(ev, in.Rt, m.src1(ev, in.Rs)&uint32(in.Imm&0xffff))
	case isa.OpORI:
		m.setDst(ev, in.Rt, m.src1(ev, in.Rs)|uint32(in.Imm&0xffff))
	case isa.OpXORI:
		m.setDst(ev, in.Rt, m.src1(ev, in.Rs)^uint32(in.Imm&0xffff))
	case isa.OpLUI:
		m.setDst(ev, in.Rt, uint32(in.Imm)<<16)

	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW:
		return m.load(in, ev)
	case isa.OpSB, isa.OpSH, isa.OpSW:
		return m.store(in, ev)

	case isa.OpBEQ:
		ev.IsBranch = true
		if m.src1(ev, in.Rs) == m.src2(ev, in.Rt) {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}
	case isa.OpBNE:
		ev.IsBranch = true
		if m.src1(ev, in.Rs) != m.src2(ev, in.Rt) {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}
	case isa.OpBLEZ:
		ev.IsBranch = true
		if int32(m.src1(ev, in.Rs)) <= 0 {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}
	case isa.OpBGTZ:
		ev.IsBranch = true
		if int32(m.src1(ev, in.Rs)) > 0 {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}
	case isa.OpBLTZ:
		ev.IsBranch = true
		if int32(m.src1(ev, in.Rs)) < 0 {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}
	case isa.OpBGEZ:
		ev.IsBranch = true
		if int32(m.src1(ev, in.Rs)) >= 0 {
			ev.Taken = true
			ev.NextPC = uint32(int64(ev.PC) + 4 + int64(in.Imm)*4)
		}

	case isa.OpJ:
		ev.NextPC = (ev.PC+4)&0xf0000000 | uint32(in.Imm)<<2
	case isa.OpJAL:
		m.setDst(ev, isa.RegRA, ev.PC+4)
		ev.NextPC = (ev.PC+4)&0xf0000000 | uint32(in.Imm)<<2
	case isa.OpJR:
		ev.NextPC = m.src1(ev, in.Rs)
	case isa.OpJALR:
		target := m.src1(ev, in.Rs)
		m.setDst(ev, in.Rd, ev.PC+4)
		ev.NextPC = target

	case isa.OpSYSCALL:
		return m.syscall(ev)
	case isa.OpBREAK:
		return m.faultf("break instruction")
	default:
		return m.faultf("invalid instruction")
	}
	return nil
}

func (m *Machine) checkAddr(addr uint32, size uint32) error {
	if addr%size != 0 {
		return m.faultf("unaligned %d-byte access at 0x%x", size, addr)
	}
	// The whole extent [addr, addr+size) must fall below the heap break
	// (or inside the stack): with an unaligned break, a word access
	// starting just below Brk would otherwise touch bytes past it.
	if addr < program.DataBase || (addr+size > m.Brk && addr < program.StackLimit) || addr > program.StackTop-size {
		return m.faultf("memory access out of bounds at 0x%x (brk=0x%x)", addr, m.Brk)
	}
	return nil
}

func (m *Machine) load(in isa.Inst, ev *Event) error {
	addr := m.src1(ev, in.Rs) + uint32(in.Imm)
	ev.IsLoad = true
	ev.Addr = addr
	var v uint32
	switch in.Op {
	case isa.OpLB:
		if err := m.checkAddr(addr, 1); err != nil {
			return err
		}
		v = uint32(int32(int8(m.Mem.LoadByte(addr))))
	case isa.OpLBU:
		if err := m.checkAddr(addr, 1); err != nil {
			return err
		}
		v = uint32(m.Mem.LoadByte(addr))
	case isa.OpLH:
		if err := m.checkAddr(addr, 2); err != nil {
			return err
		}
		v = uint32(int32(int16(m.Mem.ReadHalf(addr))))
	case isa.OpLHU:
		if err := m.checkAddr(addr, 2); err != nil {
			return err
		}
		v = uint32(m.Mem.ReadHalf(addr))
	default: // OpLW
		if err := m.checkAddr(addr, 4); err != nil {
			return err
		}
		v = m.Mem.ReadWord(addr)
	}
	ev.MemVal = v
	m.setDst(ev, in.Rt, v)
	return nil
}

func (m *Machine) store(in isa.Inst, ev *Event) error {
	addr := m.src1(ev, in.Rs) + uint32(in.Imm)
	v := m.src2(ev, in.Rt)
	ev.IsStore = true
	ev.Addr = addr
	switch in.Op {
	case isa.OpSB:
		if err := m.checkAddr(addr, 1); err != nil {
			return err
		}
		ev.MemVal = v & 0xff
		m.Mem.StoreByte(addr, byte(v))
	case isa.OpSH:
		if err := m.checkAddr(addr, 2); err != nil {
			return err
		}
		ev.MemVal = v & 0xffff
		m.Mem.WriteHalf(addr, uint16(v))
	default: // OpSW
		if err := m.checkAddr(addr, 4); err != nil {
			return err
		}
		ev.MemVal = v
		m.Mem.WriteWord(addr, v)
	}
	return nil
}
