package vprofile

import (
	"repro/internal/checkpoint"
	"repro/internal/program"
)

// SnapshotTo writes the profiler state: table geometry (sized, its
// base, its length), then every visited site (execs > 0) sparsely by
// index with its exact TNV table — entry order included, since the
// replace-the-smallest rule is order-sensitive.
func (p *Profiler) SnapshotTo(w *checkpoint.Writer) {
	w.Bool(true)
	w.U32(program.TextBase)
	w.U32(uint32(len(p.sites)))
	count := 0
	for i := range p.sites {
		if p.sites[i].execs > 0 {
			count++
		}
	}
	w.U32(uint32(count))
	for i := range p.sites {
		s := &p.sites[i]
		if s.execs == 0 {
			continue
		}
		w.U32(uint32(i))
		w.U32(uint32(s.used))
		w.U64(s.execs)
		for j := 0; j < s.used; j++ {
			w.U32(s.entries[j].value)
			w.U64(s.entries[j].count)
		}
	}
}

// RestoreFrom rebuilds the profiler from a snapshot taken over the
// same text segment: a table geometry other than the one the profiler
// was built with is malformed.
func (p *Profiler) RestoreFrom(r *checkpoint.Reader) error {
	sized := r.Bool()
	base := r.U32()
	tableLen := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if !sized || base != program.TextBase || tableLen != len(p.sites) {
		return checkpoint.ErrMalformed
	}
	clear(p.sites)
	n := r.Count(4 + 4 + 8)
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(r.U32())
		used := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if idx <= prev || idx >= tableLen || used < 1 || used > TableSize {
			return checkpoint.ErrMalformed
		}
		prev = idx
		s := &p.sites[idx]
		s.used = used
		s.execs = r.U64()
		if s.execs == 0 {
			return checkpoint.ErrMalformed
		}
		for j := 0; j < used; j++ {
			s.entries[j].value = r.U32()
			s.entries[j].count = r.U64()
		}
	}
	return r.Err()
}
