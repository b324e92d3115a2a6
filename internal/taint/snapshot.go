package taint

import "repro/internal/checkpoint"

// SnapshotTo writes the analysis state: register tags, the category
// counters, and the shadow tag space. Counting is run-phase state the
// core pipeline's pass sets from every batch, so it is not serialized
// here.
func (a *Analysis) SnapshotTo(w *checkpoint.Writer) {
	for _, t := range a.regs {
		w.U8(byte(t))
	}
	for _, v := range a.overall {
		w.U64(v)
	}
	for _, v := range a.repeated {
		w.U64(v)
	}
	a.shadow.SnapshotTo(w)
}

// RestoreFrom loads a snapshot, rejecting out-of-range tags.
func (a *Analysis) RestoreFrom(r *checkpoint.Reader) error {
	for i := range a.regs {
		a.regs[i] = Tag(r.U8())
		if r.Err() == nil && a.regs[i] >= NumTags {
			return checkpoint.ErrMalformed
		}
	}
	for i := range a.overall {
		a.overall[i] = r.U64()
	}
	for i := range a.repeated {
		a.repeated[i] = r.U64()
	}
	return a.shadow.RestoreFrom(r)
}
