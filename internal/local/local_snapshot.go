package local

import (
	"sort"

	"repro/internal/checkpoint"
)

// nTags is the number of valid ltag values (lArg is the highest).
const nTags = int(lArg) + 1

// snapshotFrame writes one activation frame. The fn pointer encodes
// as its entry address (0 = nil, below any real text address); the pe
// cache is derived state — on resume the first prologue/epilogue
// instruction re-resolves it from the restored peByFunc table.
func snapshotFrame(w *checkpoint.Writer, fr *frame) {
	entry := uint32(0)
	if fr.fn != nil {
		entry = fr.fn.Entry
	}
	w.U32(entry)
	for _, t := range fr.regs {
		w.U8(byte(t))
	}
	for _, u := range fr.uninit {
		w.Bool(u)
	}
	for _, t := range fr.savedRegs {
		w.U8(byte(t))
	}
	w.U32(uint32(len(fr.saves)))
	for _, s := range fr.saves {
		w.U32(s)
	}
}

// restoreFrame loads one activation frame.
func (a *Analysis) restoreFrame(r *checkpoint.Reader, fr *frame) error {
	entry := r.U32()
	if entry != 0 {
		fr.fn = a.image.FuncByEntry(entry)
		if r.Err() == nil && fr.fn == nil {
			return checkpoint.ErrMalformed
		}
	} else {
		fr.fn = nil
	}
	for i := range fr.regs {
		fr.regs[i] = ltag(r.U8())
		if r.Err() == nil && int(fr.regs[i]) >= nTags {
			return checkpoint.ErrMalformed
		}
	}
	for i := range fr.uninit {
		fr.uninit[i] = r.Bool()
	}
	for i := range fr.savedRegs {
		fr.savedRegs[i] = ltag(r.U8())
		if r.Err() == nil && int(fr.savedRegs[i]) >= nTags {
			return checkpoint.ErrMalformed
		}
	}
	ns := r.Count(4)
	fr.saves = make([]uint32, ns)
	for i := range fr.saves {
		fr.saves[i] = r.U32()
	}
	fr.pe = nil
	return r.Err()
}

// SnapshotTo writes the analysis state: the stack shadow space, the
// activation stack and root frame, the category counters, the Table 9
// table in name order, and each observed load site's value histogram
// inverted into index order (the insertion order counts[] depends
// on). Counting is run-phase state the core pipeline's pass sets from
// every batch, so it is not serialized here.
func (a *Analysis) SnapshotTo(w *checkpoint.Writer) {
	a.shadow.SnapshotTo(w)
	snapshotFrame(w, &a.root)
	w.U32(uint32(len(a.stack)))
	for i := range a.stack {
		snapshotFrame(w, &a.stack[i])
	}
	for _, v := range a.overall {
		w.U64(v)
	}
	for _, v := range a.repeated {
		w.U64(v)
	}

	names := make([]string, 0, len(a.peByFunc))
	for name := range a.peByFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	w.U32(uint32(len(names)))
	for _, name := range names {
		pe := a.peByFunc[name]
		w.String(name)
		entry := uint32(0)
		if pe.fn != nil {
			entry = pe.fn.Entry
		}
		w.U32(entry)
		w.U64(pe.total)
		w.U64(pe.repeated)
	}

	w.U32(uint32(len(a.loadSites)))
	count := 0
	for _, site := range a.loadSites {
		if site != nil {
			count++
		}
	}
	w.U32(uint32(count))
	for idx, site := range a.loadSites {
		if site == nil {
			continue
		}
		w.U32(uint32(idx))
		vals := make([]uint32, len(site.counts))
		for v, i := range site.values {
			vals[i] = v
		}
		w.U32(uint32(len(vals)))
		for _, v := range vals {
			w.U32(v)
		}
		for _, c := range site.counts {
			w.U64(c)
		}
		w.U32(site.last)
		w.U32(site.lastIx)
		w.Bool(site.full)
	}
}

// RestoreFrom rebuilds the analysis from a snapshot.
func (a *Analysis) RestoreFrom(r *checkpoint.Reader) error {
	if err := a.shadow.RestoreFrom(r); err != nil {
		return err
	}
	if err := a.restoreFrame(r, &a.root); err != nil {
		return err
	}
	ns := r.Count(4 + 3*34 + 4)
	a.stack = make([]frame, ns)
	for i := range a.stack {
		if err := a.restoreFrame(r, &a.stack[i]); err != nil {
			return err
		}
	}
	for i := range a.overall {
		a.overall[i] = r.U64()
	}
	for i := range a.repeated {
		a.repeated[i] = r.U64()
	}

	np := r.Count(4 + 4 + 2*8)
	a.peByFunc = make(map[string]*perFuncPE, np)
	for i := 0; i < np; i++ {
		name := r.String()
		pe := &perFuncPE{}
		entry := r.U32()
		if entry != 0 {
			pe.fn = a.image.FuncByEntry(entry)
			if r.Err() == nil && pe.fn == nil {
				return checkpoint.ErrMalformed
			}
		}
		pe.total = r.U64()
		pe.repeated = r.U64()
		a.peByFunc[name] = pe
	}
	if r.Err() == nil && len(a.peByFunc) != np {
		return checkpoint.ErrMalformed
	}

	tableLen := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if tableLen != len(a.loadSites) {
		// The table spans the image's text segment: a snapshot taken
		// over another image does not fit it.
		return checkpoint.ErrMalformed
	}
	clear(a.loadSites)
	nsites := r.Count(4 + 4 + 4 + 4 + 1)
	prev := -1
	for i := 0; i < nsites; i++ {
		idx := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if idx <= prev || idx >= tableLen {
			return checkpoint.ErrMalformed
		}
		prev = idx
		nv := r.Count(4)
		if nv == 0 || nv > maxLoadValues {
			// A live site always holds at least one value.
			return checkpoint.ErrMalformed
		}
		site := &loadSite{
			values: make(map[uint32]uint32, nv),
			counts: make([]uint64, nv),
		}
		for vi := 0; vi < nv; vi++ {
			site.values[r.U32()] = uint32(vi)
		}
		if r.Err() == nil && len(site.values) != nv {
			return checkpoint.ErrMalformed
		}
		for vi := range site.counts {
			site.counts[vi] = r.U64()
		}
		site.last = r.U32()
		site.lastIx = r.U32()
		site.full = r.Bool()
		if r.Err() == nil && int(site.lastIx) >= nv {
			return checkpoint.ErrMalformed
		}
		a.loadSites[idx] = site
	}
	// The heap base is derived from the image, not the snapshot; a
	// mismatched image cannot sneak in because the checkpoint key pins
	// the workload.
	a.heapBase = a.image.HeapBase()
	return r.Err()
}
