package checkpoint

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// FormatVersion is bumped whenever the snapshot body layout changes in
// any way. A snapshot written by a different version is not resumable:
// Decode rejects it with ErrVersion and the store deletes it, so a
// binary upgrade degrades to a fresh run instead of a wrong report.
const FormatVersion = 3

// magic identifies a checkpoint file: "Instruction-repetition
// ChecKPoint".
var magic = [4]byte{'I', 'C', 'K', 'P'}

// Envelope layout constants.
const (
	headerLen   = 4 + 4 + 4 // magic + version + keyLen
	checksumLen = sha256.Size

	// MaxKeyLen bounds the key field (fingerprints are 64 hex chars;
	// anything near this bound is hostile input, not a fingerprint).
	MaxKeyLen = 1 << 10
)

// Decode failure modes. Store folds ErrVersion into its version-
// mismatch counter and everything else into the corrupt counter; both
// end with the file deleted and a fresh run.
var (
	ErrMagic     = errors.New("checkpoint: bad magic")
	ErrVersion   = errors.New("checkpoint: format version mismatch")
	ErrTruncated = errors.New("checkpoint: truncated input")
	ErrMalformed = errors.New("checkpoint: malformed input")
	ErrChecksum  = errors.New("checkpoint: checksum mismatch")
)

// Snapshotter is implemented by every component whose state must
// survive a crash: the machine, each observer, and core's phase
// bookkeeping. SnapshotTo must write a canonical (byte-deterministic)
// encoding of the complete live state; RestoreFrom must rebuild
// exactly that state from the reader, leaving any derived caches
// (translation cache, page caches) invalidated rather than restored.
type Snapshotter interface {
	SnapshotTo(w *Writer)
	RestoreFrom(r *Reader) error
}

// Encode wraps body in the self-validating envelope:
//
//	magic | u32 version | u32 keyLen | key | u64 bodyLen | body | sha256
//
// where the checksum covers every byte before it (header and body
// alike, so a flipped version or key bit is caught too).
func Encode(key string, body []byte) []byte {
	out := make([]byte, 0, headerLen+len(key)+8+len(body)+checksumLen)
	var w Writer
	w.buf = out
	w.buf = append(w.buf, magic[:]...)
	w.U32(FormatVersion)
	w.String(key)
	w.U64(uint64(len(body)))
	w.buf = append(w.buf, body...)
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf
}

// Decode validates the envelope and returns the key and body. It
// never panics on arbitrary input; any structural problem — short
// input, wrong magic, foreign version, absurd lengths, trailing
// garbage, checksum mismatch — is an error, and a snapshot that fails
// to decode is treated as nonexistent by every caller.
func Decode(data []byte) (key string, body []byte, err error) {
	r := NewReader(data)
	if m := r.take(4); m == nil || [4]byte(m) != magic {
		return "", nil, firstErr(r, ErrMagic)
	}
	if v := r.U32(); r.err == nil && v != FormatVersion {
		return "", nil, fmt.Errorf("%w: file has v%d, this binary reads v%d", ErrVersion, v, FormatVersion)
	}
	keyLen := int(r.U32())
	if r.err == nil && keyLen > MaxKeyLen {
		return "", nil, ErrMalformed
	}
	k := r.take(keyLen)
	bodyLen := r.U64()
	if r.err == nil && bodyLen != uint64(r.Remaining()-checksumLen) {
		// Wrong length or missing/oversized trailer: either way the
		// envelope does not frame the input exactly.
		return "", nil, firstOf(ErrTruncated, ErrMalformed, uint64(r.Remaining()) < bodyLen+checksumLen)
	}
	b := r.take(int(bodyLen))
	if r.err != nil {
		return "", nil, r.err
	}
	sum := sha256.Sum256(data[:len(data)-checksumLen])
	if [checksumLen]byte(data[len(data)-checksumLen:]) != sum {
		return "", nil, ErrChecksum
	}
	return string(k), b, nil
}

// firstErr returns the reader's sticky error if set, else fallback.
func firstErr(r *Reader, fallback error) error {
	if r.err != nil {
		return r.err
	}
	return fallback
}

// firstOf returns a when cond holds, else b.
func firstOf(a, b error, cond bool) error {
	if cond {
		return a
	}
	return b
}
