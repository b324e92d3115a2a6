package repetition

import (
	"repro/internal/checkpoint"
	"repro/internal/program"
)

// maxSnapshotSlots bounds an overflow table's size: a snapshot claiming
// a larger one is rejected rather than allocated.
const maxSnapshotSlots = 1 << 23

// encodedSlotLen is the wire size of one islot.
const encodedSlotLen = 4*4 + 4

// minEncodedRecordLen is the smallest wire size of one non-empty
// record (index + counters + n/last/full + two inline slots + empty
// overflow length).
const minEncodedRecordLen = 4 + 3*8 + 4 + 4 + 1 + 2*encodedSlotLen + 4

func writeSlot(w *checkpoint.Writer, s *islot) {
	w.U32(s.key.in1)
	w.U32(s.key.in2)
	w.U32(s.key.out)
	w.U32(s.key.aux)
	w.U32(s.count)
}

func readSlot(r *checkpoint.Reader, s *islot) {
	s.key.in1 = r.U32()
	s.key.in2 = r.U32()
	s.key.out = r.U32()
	s.key.aux = r.U32()
	s.count = r.U32()
}

// SnapshotTo writes the complete census state: the type census, the
// dense table's geometry (sized, its base, its length), and every
// executed record including its exact instance-buffer layout (inline
// tier, overflow table with slot positions, last-match cache).
// Preserving layout — not just contents — makes a resumed tracker
// behaviorally identical to the uninterrupted one, probe chains and
// all.
func (t *Tracker) SnapshotTo(w *checkpoint.Writer) {
	for _, v := range t.Types.Overall {
		w.U64(v)
	}
	for _, v := range t.Types.Repeated {
		w.U64(v)
	}
	w.Bool(true)
	w.U32(program.TextBase)
	w.U64(t.totalDyn)
	w.U64(t.totalRepeated)
	w.U32(uint32(len(t.recs)))
	count := 0
	for i := range t.recs {
		if t.recs[i].dyn > 0 {
			count++
		}
	}
	w.U32(uint32(count))
	for i := range t.recs {
		rec := &t.recs[i]
		if rec.dyn == 0 {
			// A never-executed slot is all zeroes by the Observe
			// invariant; encode it by omission.
			continue
		}
		w.U32(uint32(i))
		w.U64(rec.dyn)
		w.U64(rec.repeated)
		w.U64(rec.dropped)
		w.U32(uint32(rec.n))
		w.U32(uint32(rec.last))
		w.Bool(rec.full)
		for j := range rec.inline {
			writeSlot(w, &rec.inline[j])
		}
		w.U32(uint32(len(rec.slots)))
		for j := range rec.slots {
			writeSlot(w, &rec.slots[j])
		}
	}
}

// RestoreFrom rebuilds the census from a snapshot, validating every
// structural invariant (the table geometry the tracker was built with,
// indices strictly increasing and in range, overflow tables
// power-of-two sized, last-match index in bounds) so a malformed body,
// or one taken over another text segment, yields an error, never a
// panic or a corrupt tracker. MaxInstances and the table size are
// configuration, not state — the caller constructs the tracker from the
// same image and run config before restoring.
func (t *Tracker) RestoreFrom(r *checkpoint.Reader) error {
	for i := range t.Types.Overall {
		t.Types.Overall[i] = r.U64()
	}
	for i := range t.Types.Repeated {
		t.Types.Repeated[i] = r.U64()
	}
	sized := r.Bool()
	base := r.U32()
	t.totalDyn = r.U64()
	t.totalRepeated = r.U64()
	tableLen := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if !sized || base != program.TextBase || tableLen != len(t.recs) {
		return checkpoint.ErrMalformed
	}
	clear(t.recs)
	n := r.Count(minEncodedRecordLen)
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if idx <= prev || idx >= tableLen {
			return checkpoint.ErrMalformed
		}
		prev = idx
		rec := &t.recs[idx]
		rec.dyn = r.U64()
		rec.repeated = r.U64()
		rec.dropped = r.U64()
		rec.n = int32(r.U32())
		rec.last = int32(r.U32())
		rec.full = r.Bool()
		for j := range rec.inline {
			readSlot(r, &rec.inline[j])
		}
		slotsLen := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case slotsLen == 0:
		case slotsLen < minInstanceSlots, slotsLen > maxSnapshotSlots,
			slotsLen&(slotsLen-1) != 0, slotsLen > r.Remaining()/encodedSlotLen:
			return checkpoint.ErrMalformed
		default:
			rec.slots = make([]islot, slotsLen)
			for j := range rec.slots {
				readSlot(r, &rec.slots[j])
			}
		}
		if rec.dyn == 0 || rec.n < 0 ||
			rec.last < 0 || int(rec.last) >= max(slotsLen, 1) {
			return checkpoint.ErrMalformed
		}
	}
	return r.Err()
}
