package cpu

import (
	"strconv"

	"repro/internal/isa"
	"repro/internal/program"
)

// syscall implements the OS interface. The calling convention follows
// SPIM: $v0 carries the syscall number, $a0/$a1 the arguments, and
// results return in $v0.
//
// For the dataflow analyses the event records $v0 (the number) as Src1
// and $a0 as Src2; syscalls that produce a value set Dst=$v0. Bytes
// delivered by ReadChar/ReadBlock are the program's *external input*;
// the taint analysis special-cases these events.
func (m *Machine) syscall(ev *Event) error {
	num := m.Regs[isa.RegV0]
	ev.SysNum = num
	ev.Src1, ev.Src1Val = isa.RegV0, num
	ev.Src2, ev.Src2Val = isa.RegA0, m.Regs[isa.RegA0]

	switch num {
	case SysPrintInt:
		m.emit([]byte(strconv.FormatInt(int64(int32(m.Regs[isa.RegA0])), 10)))
	case SysPrintStr:
		s := m.Mem.ReadCString(m.Regs[isa.RegA0], 1<<16)
		m.emit([]byte(s))
	case SysSbrk:
		old := m.Brk
		n := int32(m.Regs[isa.RegA0])
		newBrk := uint32(int64(m.Brk) + int64(n))
		if newBrk < m.Image.HeapBase() || newBrk >= program.StackLimit {
			return m.faultf("sbrk(%d) out of range (brk=0x%x)", n, m.Brk)
		}
		m.Brk = newBrk
		m.setDst(ev, isa.RegV0, old)
	case SysExit:
		m.Halted = true
		m.ExitCode = int32(m.Regs[isa.RegA0])
	case SysPutChar:
		m.emit([]byte{byte(m.Regs[isa.RegA0])})
	case SysReadChar:
		v := uint32(0xffffffff) // -1 on EOF
		if m.inPos < len(m.input) {
			v = uint32(m.input[m.inPos])
			m.inPos++
		}
		m.setDst(ev, isa.RegV0, v)
	case SysReadBlock:
		buf := m.Regs[isa.RegA0]
		n := int(int32(m.Regs[isa.RegA1]))
		got := 0
		for got < n && m.inPos < len(m.input) {
			m.Mem.StoreByte(buf+uint32(got), m.input[m.inPos])
			m.inPos++
			got++
		}
		m.setDst(ev, isa.RegV0, uint32(got))
	default:
		return m.faultf("unknown syscall %d", num)
	}
	return nil
}

// maxOutput bounds the Output a machine keeps.
const maxOutput = 1 << 20

func (m *Machine) emit(b []byte) {
	if m.Output.Len()+len(b) <= maxOutput {
		m.Output.Write(b)
	}
}
