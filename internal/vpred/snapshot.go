package vpred

import "repro/internal/checkpoint"

// SnapshotTo writes the predictor state: the accuracy counters and a
// raw dump of the stored table (geometry and text length are
// configuration, rebuilt by the caller with New before restoring; the
// encoded length cross-checks them).
func (p *Predictor) SnapshotTo(w *checkpoint.Writer) {
	w.U64(p.eligible)
	w.U64(p.lastCorrect)
	w.U64(p.strideCorrect)
	w.U64(p.hybridCorrect)
	w.U32(uint32(len(p.table)))
	for i := range p.table {
		e := &p.table[i]
		w.Bool(e.valid)
		w.U32(e.pc)
		w.U32(e.last)
		w.U32(e.stride)
		w.Bool(e.warm)
	}
}

// RestoreFrom loads a snapshot into a predictor constructed with the
// same table size.
func (p *Predictor) RestoreFrom(r *checkpoint.Reader) error {
	p.eligible = r.U64()
	p.lastCorrect = r.U64()
	p.strideCorrect = r.U64()
	p.hybridCorrect = r.U64()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(p.table) {
		return checkpoint.ErrMalformed
	}
	for i := range p.table {
		e := &p.table[i]
		e.valid = r.Bool()
		e.pc = r.U32()
		e.last = r.U32()
		e.stride = r.U32()
		e.warm = r.Bool()
	}
	return r.Err()
}
