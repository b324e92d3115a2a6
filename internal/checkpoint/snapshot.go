package checkpoint

import (
	"errors"

	"repro/internal/filestore"
)

// FormatVersion is bumped whenever the snapshot body layout changes in
// any way. A snapshot written by a different version is not resumable:
// Decode rejects it with ErrVersion and the store deletes it, so a
// binary upgrade degrades to a fresh run instead of a wrong report.
const FormatVersion = 3

// format is a checkpoint file's filestore envelope: magic "ICKP"
// ("Instruction-repetition ChecKPoint"), FormatVersion, <key>.ckpt.
var format = filestore.Format{Magic: [4]byte{'I', 'C', 'K', 'P'}, Version: FormatVersion, Ext: ".ckpt"}

// Failure modes. ErrVersion is the envelope's version mismatch, which
// Store counts apart from every other failed check; ErrTruncated and
// ErrMalformed are what Reader and the restore paths report for a body
// that does not decode.
var (
	ErrVersion   = filestore.ErrVersion
	ErrTruncated = errors.New("checkpoint: truncated input")
	ErrMalformed = errors.New("checkpoint: malformed input")
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

// Encode wraps body in the checkpoint envelope (filestore's, under the
// ICKP magic and FormatVersion):
//
//	magic | u32 version | u32 keyLen | key | u64 bodyLen | body | sha256
//
// where the checksum covers every byte before it (header and body
// alike, so a flipped version or key bit is caught too).
func Encode(key string, body []byte) []byte { return format.Encode(key, body) }

// Decode validates the checkpoint envelope and returns the key and
// body. It never panics on arbitrary input; any structural problem —
// short input, wrong magic, foreign version, absurd lengths, trailing
// garbage, checksum mismatch — is an error, and a snapshot that fails
// to decode is treated as nonexistent by every caller.
func Decode(data []byte) (key string, body []byte, err error) { return format.Decode(data) }
