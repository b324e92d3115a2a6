package funcanal

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
)

// SnapshotTo writes the analysis state. Maps encode in deterministic
// order — byPC by entry PC, each tuple table inverted into index
// order (preserving insertion order, which tupleCounts depends on),
// per-argument value sets sorted — so the same state always produces
// the same bytes. Counting is run-phase state the core pipeline's pass
// sets from every batch, so it is not serialized here.
func (a *Analysis) SnapshotTo(w *checkpoint.Writer) {
	w.U32(a.curSP)
	w.U64(a.totalCalls)
	w.U64(a.totalAllRep)
	w.U64(a.totalNoneRep)

	entries := make([]uint32, 0, len(a.byPC))
	for pc := range a.byPC {
		entries = append(entries, pc)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	w.U32(uint32(len(entries)))
	for _, pc := range entries {
		st := a.byPC[pc]
		w.U32(pc)
		w.U64(st.calls)
		w.U64(st.allRep)
		w.U64(st.noneRep)
		nargs := len(st.perArg)
		w.U8(uint8(nargs))
		// Invert tuples (key -> index) into index order; tupleCounts
		// is parallel to it by construction.
		keys := make([]argKey, len(st.tupleCounts))
		for k, ti := range st.tuples {
			keys[ti] = k
		}
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			for i := 0; i < nargs; i++ {
				w.U32(k.a[i])
			}
		}
		for _, c := range st.tupleCounts {
			w.U64(c)
		}
		w.Bool(st.tuplesFull)
		for _, set := range st.perArg {
			vals := make([]uint32, 0, len(set))
			for v := range set {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			w.U32(uint32(len(vals)))
			for _, v := range vals {
				w.U32(v)
			}
		}
		w.U64(st.returned)
		w.U64(st.pureCalls)
		w.U64(st.pureAllRep)
		w.U64(st.returnedAllRep)
		w.U64(st.instrs)
		w.U64(st.instrsRep)
	}

	w.U32(uint32(len(a.stack)))
	for i := range a.stack {
		fr := &a.stack[i]
		// A frame's stats pointer is identified by its byPC key (the
		// callee entry); 0 marks an anonymous frame. No real function
		// sits at address 0 (text starts at program.TextBase).
		key := uint32(0)
		if fr.stats != nil {
			key = fr.stats.fn.Entry
		}
		w.U32(key)
		w.U32(fr.spEntry)
		w.Bool(fr.allRep)
		w.Bool(fr.sideEff)
		w.Bool(fr.implicit)
	}
}

// RestoreFrom rebuilds the analysis from a snapshot, resolving
// function pointers through the immutable image and validating every
// cross-reference (tuple-table sizes, frame stats keys).
func (a *Analysis) RestoreFrom(r *checkpoint.Reader) error {
	a.curSP = r.U32()
	a.totalCalls = r.U64()
	a.totalAllRep = r.U64()
	a.totalNoneRep = r.U64()

	a.byPC = make(map[uint32]*funcStats)
	nf := r.Count(4 + 3*8 + 1 + 4 + 1 + 6*8)
	prev := int64(-1)
	for i := 0; i < nf; i++ {
		pc := r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if int64(pc) <= prev {
			return checkpoint.ErrMalformed
		}
		prev = int64(pc)
		fn := a.image.FuncByEntry(pc)
		if fn == nil {
			return checkpoint.ErrMalformed
		}
		st := &funcStats{fn: fn}
		st.calls = r.U64()
		st.allRep = r.U64()
		st.noneRep = r.U64()
		nargs := int(r.U8())
		if r.Err() != nil {
			return r.Err()
		}
		if nargs > cpu.MaxTrackedArgs {
			return checkpoint.ErrMalformed
		}
		nt := r.Count(max(4*nargs, 1))
		if nt > maxTuples {
			return checkpoint.ErrMalformed
		}
		st.tuples = make(map[argKey]uint32, nt)
		for ti := 0; ti < nt; ti++ {
			var k argKey
			k.n = nargs
			for j := 0; j < nargs; j++ {
				k.a[j] = r.U32()
			}
			st.tuples[k] = uint32(ti)
		}
		if r.Err() == nil && len(st.tuples) != nt {
			return checkpoint.ErrMalformed // duplicate tuple keys
		}
		st.tupleCounts = make([]uint64, nt)
		for ti := range st.tupleCounts {
			st.tupleCounts[ti] = r.U64()
		}
		st.tuplesFull = r.Bool()
		st.perArg = make([]map[uint32]struct{}, nargs)
		for j := range st.perArg {
			nv := r.Count(4)
			set := make(map[uint32]struct{}, nv)
			for v := 0; v < nv; v++ {
				set[r.U32()] = struct{}{}
			}
			if r.Err() == nil && len(set) != nv {
				return checkpoint.ErrMalformed
			}
			st.perArg[j] = set
		}
		st.returned = r.U64()
		st.pureCalls = r.U64()
		st.pureAllRep = r.U64()
		st.returnedAllRep = r.U64()
		st.instrs = r.U64()
		st.instrsRep = r.U64()
		a.byPC[pc] = st
	}

	ns := r.Count(4 + 4 + 3)
	a.stack = make([]frame, ns)
	for i := range a.stack {
		fr := &a.stack[i]
		key := r.U32()
		if key != 0 {
			fr.stats = a.byPC[key]
			if r.Err() == nil && fr.stats == nil {
				return checkpoint.ErrMalformed
			}
		}
		fr.spEntry = r.U32()
		fr.allRep = r.Bool()
		fr.sideEff = r.Bool()
		fr.implicit = r.Bool()
	}
	return r.Err()
}
