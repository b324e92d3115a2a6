package cpu

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
)

// SnapshotTo writes the machine's complete architectural state:
// registers, PC, heap break, retire count, retirement counters, halt
// state, accumulated output, the input cursor, and every memory page.
// Configuration that is re-derived from the workload on resume (the
// image, the input bytes, observer attachments, NoTranslate)
// is deliberately absent — the checkpoint key already pins it — and so
// are the Trans counters, which describe execution, not state.
func (m *Machine) SnapshotTo(w *checkpoint.Writer) {
	for _, v := range m.Regs {
		w.U32(v)
	}
	w.U32(m.PC)
	w.U32(m.Brk)
	w.U64(m.Count)
	w.U64(m.Stats.Loads)
	w.U64(m.Stats.Stores)
	w.U64(m.Stats.Branches)
	w.U64(m.Stats.BranchesTaken)
	w.U64(m.Stats.Syscalls)
	for _, v := range m.Stats.Kinds {
		w.U64(v)
	}
	w.Bool(m.Halted)
	w.U32(uint32(m.ExitCode))
	w.Raw(m.Output.Bytes())
	w.Int(m.inPos)
	m.Mem.SnapshotTo(w)
}

// RestoreFrom replaces the architectural state with the snapshot.
// Derived caches are invalidated, not restored: the translation cache
// is dropped (rebuilt lazily from the immutable image) and the memory
// page caches come back empty. The image, input, observers, and run-
// mode flags are untouched — the caller constructed the machine for
// the same workload before restoring into it.
func (m *Machine) RestoreFrom(r *checkpoint.Reader) error {
	for i := range m.Regs {
		m.Regs[i] = r.U32()
	}
	m.PC = r.U32()
	m.Brk = r.U32()
	m.Count = r.U64()
	m.Stats.Loads = r.U64()
	m.Stats.Stores = r.U64()
	m.Stats.Branches = r.U64()
	m.Stats.BranchesTaken = r.U64()
	m.Stats.Syscalls = r.U64()
	for i := range m.Stats.Kinds {
		m.Stats.Kinds[i] = r.U64()
	}
	m.Halted = r.Bool()
	m.ExitCode = int32(r.U32())
	out := r.Raw()
	m.Output.Reset()
	m.Output.Write(out)
	m.inPos = r.Int()
	if err := m.Mem.RestoreFrom(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if m.inPos < 0 || m.inPos > len(m.input) {
		return checkpoint.ErrMalformed
	}
	if m.Regs[isa.RegZero] != 0 {
		return checkpoint.ErrMalformed
	}
	m.trans = nil
	return nil
}
