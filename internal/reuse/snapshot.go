package reuse

import "repro/internal/checkpoint"

// SnapshotTo writes the buffer's complete state: the replacement
// policy and its generator state, the clock and hit counters, then a
// raw dump of every tag, every invalidation-chain node, and the chain
// heads. The dump preserves exact slot positions, LRU stamps, chain
// order, and the Random policy's xorshift state, so a restored buffer
// makes byte-for-byte the same replacement and invalidation decisions
// as the original. Geometry (assoc, sets, bucket count), policy and
// text length are configuration: the caller rebuilds them with
// NewPolicy before restoring, and the encoded values cross-check them
// (the dump holds only the stored sets, so a buffer built for another
// text length, where that changes the stored count, rejects it).
func (b *Buffer) SnapshotTo(w *checkpoint.Writer) {
	w.U8(uint8(b.policy))
	w.U64(b.rng)
	w.U64(b.clock)
	w.U64(b.attempts)
	w.U64(b.hits)
	w.U64(b.hitsRepeated)
	w.U64(b.hitsNonRepeated)
	w.U64(b.loadInv)
	w.U32(uint32(len(b.tags)))
	for i := range b.tags {
		tg := &b.tags[i]
		w.U32(tg.pc)
		w.U32(tg.in1)
		w.U32(tg.in2)
		w.U32(tg.flags)
		w.U32(tg.result)
		w.U32(tg.aux)
		w.U64(tg.lru)
	}
	for i := range b.entries {
		e := &b.entries[i]
		w.U32(e.addr)
		w.U32(uint32(e.nextA))
		w.U32(uint32(e.prevA))
	}
	w.U32(uint32(len(b.addrHead)))
	for _, h := range b.addrHead {
		w.U32(uint32(h))
	}
}

// RestoreFrom loads a snapshot into a buffer constructed with the
// same geometry and policy, validating that the encoded policy and
// lengths match and that every chain link is either noEntry or a valid
// entry index.
func (b *Buffer) RestoreFrom(r *checkpoint.Reader) error {
	pol := Policy(r.U8())
	if r.Err() != nil {
		return r.Err()
	}
	if pol != b.policy {
		return checkpoint.ErrMalformed
	}
	b.rng = r.U64()
	b.clock = r.U64()
	b.attempts = r.U64()
	b.hits = r.U64()
	b.hitsRepeated = r.U64()
	b.hitsNonRepeated = r.U64()
	b.loadInv = r.U64()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(b.tags) {
		return checkpoint.ErrMalformed
	}
	for i := range b.tags {
		tg := &b.tags[i]
		tg.pc = r.U32()
		tg.in1 = r.U32()
		tg.in2 = r.U32()
		tg.flags = r.U32()
		tg.result = r.U32()
		tg.aux = r.U32()
		tg.lru = r.U64()
	}
	for i := range b.entries {
		e := &b.entries[i]
		e.addr = r.U32()
		e.nextA = int32(r.U32())
		e.prevA = int32(r.U32())
		if !b.validLink(e.nextA) || !b.validLink(e.prevA) {
			return checkpoint.ErrMalformed
		}
	}
	nb := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if nb != len(b.addrHead) {
		return checkpoint.ErrMalformed
	}
	for i := range b.addrHead {
		b.addrHead[i] = int32(r.U32())
		if !b.validLink(b.addrHead[i]) {
			return checkpoint.ErrMalformed
		}
	}
	return r.Err()
}

// validLink reports whether i is noEntry or a valid entry index.
func (b *Buffer) validLink(i int32) bool {
	return i == noEntry || (i >= 0 && int(i) < len(b.entries))
}
