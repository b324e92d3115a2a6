// Package checkpoint is the crash-resume substrate for long
// simulations: a versioned, canonical, self-validating binary snapshot
// format plus an atomic on-disk store keyed by the result-cache
// fingerprint.
//
// The format is deliberately boring: little-endian fixed-width
// integers, length-prefixed byte strings, no varints, no compression,
// no reflection. Canonical means byte-deterministic — encoding the
// same simulation state twice yields identical bytes, which is what
// lets tests pin "resumed == uninterrupted" down to the snapshot
// layer. Self-validating means an "ICKP" magic header, a format
// version, and a SHA-256 trailer over everything before it; any file
// that fails any of those checks is treated as absent (counted and
// deleted), never as state to resume from.
package checkpoint

import "encoding/binary"

// Writer accumulates the canonical encoding of a snapshot body. The
// zero value is ready to use. Every value is little-endian and
// fixed-width so the encoding of a given state is unique.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded body. The slice aliases the writer's
// buffer; callers hand it straight to Encode.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64 (two's-complement, little-endian).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Raw appends p with a u32 length prefix.
func (w *Writer) Raw(p []byte) {
	w.U32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends s with a u32 length prefix.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Fixed appends p verbatim, no length prefix — for fields whose size
// is fixed by the format (memory pages, checksums).
func (w *Writer) Fixed(p []byte) {
	w.buf = append(w.buf, p...)
}

// Reader decodes a snapshot body produced by Writer. It is
// sticky-error and bounds-checked: after the first short or malformed
// read every subsequent accessor returns the zero value, and Err
// reports the failure. Nothing in this type panics on hostile input —
// that is the contract FuzzSnapshotDecode pins.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps body for decoding.
func NewReader(body []byte) *Reader { return &Reader{data: body} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail marks the reader broken (first error wins).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or nil after marking the reader
// failed when fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads one byte as a bool; any value other than 0 or 1 fails
// the reader (canonical form admits exactly one encoding).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrMalformed)
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Raw reads a u32-length-prefixed byte string. The returned slice
// aliases the reader's buffer.
func (r *Reader) Raw() []byte {
	n := r.U32()
	return r.take(int(n))
}

// Fixed reads exactly n bytes (no length prefix). The returned slice
// aliases the reader's buffer.
func (r *Reader) Fixed(n int) []byte { return r.take(n) }

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Raw()) }

// Count reads a u32 element count for a sequence whose elements each
// encode to at least minBytes bytes, and validates that the count
// could possibly fit in the remaining input. Restore paths size their
// allocations from it, so a hostile length prefix cannot force a huge
// allocation before the bytes backing it are proven present.
func (r *Reader) Count(minBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > r.Remaining()/minBytes {
		r.fail(ErrMalformed)
		return 0
	}
	return n
}
