package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The journal is a single append-only file of framed records, one per
// job state transition. Each record is independently verifiable:
//
//	offset  size  field
//	0       4     magic "IJOB"
//	4       4     format version (big endian)
//	8       4     body length (big endian)
//	12      n     body — Record as JSON
//	12+n    32    SHA-256 over everything above
//
// This is the ICKP envelope (internal/checkpoint) re-applied at record
// granularity: a torn write from SIGKILL mid-append corrupts only the
// final record, and the startup scan proves it by checksum and
// truncates the file back to the last good frame. Appends are fsynced
// so an acknowledged transition survives the process; compaction
// rewrites the file via create-temp+rename so it is all-or-nothing.
const (
	journalMagic   = "IJOB"
	journalVersion = 1
	journalName    = "journal.ijob"
	tmpSuffix      = ".tmp"

	recHeaderLen = 12
	recTrailer   = sha256.Size
	// maxBodyLen bounds a single record body; anything larger in the
	// length field is corruption, not a real record.
	maxBodyLen = 1 << 20
)

// JournalStats are the journal's observability counters, exported on
// /metrics under the job_ prefix.
type JournalStats struct {
	Appends     obs.Counter // records appended (and fsynced)
	Compactions obs.Counter // full rewrites (temp+rename)
	Replayed    obs.Counter // records recovered by the startup scan
	TornDropped obs.Counter // trailing bytes discarded as torn/corrupt
	TmpScrubbed obs.Counter // orphaned *.tmp files removed at startup
}

// Journal is the append-only job ledger. It is not internally
// synchronized: the Manager serializes all access under its own lock.
type Journal struct {
	dir  string
	path string
	f    *os.File

	Stats JournalStats
}

// OpenJournal opens (creating if needed) the journal in dir, scrubs
// orphaned temp files, scans existing records — truncating any torn
// tail — and returns the surviving state: the last record per job ID,
// ordered by submit sequence. It then compacts the file down to
// exactly those records so replay history never accumulates across
// restarts.
func OpenJournal(dir string) (*Journal, []Record, error) {
	if dir == "" {
		return nil, nil, errors.New("jobs: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	j := &Journal{dir: dir, path: filepath.Join(dir, journalName)}

	// A SIGKILL during compaction can leave the temp file behind; the
	// rename either happened (journal is the compacted ledger) or did
	// not (journal is the old ledger) — the orphan is garbage either way.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), tmpSuffix) {
			if os.Remove(filepath.Join(dir, ent.Name())) == nil {
				j.Stats.TmpScrubbed.Inc()
			}
		}
	}

	data, err := os.ReadFile(j.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	recs, good := ScanJournal(data)
	j.Stats.Replayed.Add(uint64(len(recs)))
	if good < len(data) {
		j.Stats.TornDropped.Add(uint64(len(data) - good))
	}
	live := latestPerID(recs)

	// Compact-on-open also truncates the torn tail as a side effect:
	// the rewritten file contains only whole, checksummed frames.
	if err := j.compact(live); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	j.f = f
	return j, live, nil
}

// Append frames, writes, and fsyncs one record. On return the
// transition is durable: a SIGKILL at any later instant replays it.
func (j *Journal) Append(rec Record) error {
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal sync: %w", err)
	}
	j.Stats.Appends.Inc()
	return nil
}

// compact rewrites the journal to hold exactly the given records,
// atomically (temp+rename).
func (j *Journal) compact(live []Record) error {
	tmp, err := os.CreateTemp(j.dir, journalName+"-*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, rec := range live {
		frame, err := encodeRecord(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("jobs: journal compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	j.Stats.Compactions.Inc()
	return nil
}

// Close releases the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// encodeRecord frames one record in the journal envelope.
func encodeRecord(rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode record: %w", err)
	}
	if len(body) > maxBodyLen {
		return nil, fmt.Errorf("jobs: record body %d bytes exceeds %d", len(body), maxBodyLen)
	}
	frame := make([]byte, 0, recHeaderLen+len(body)+recTrailer)
	frame = append(frame, journalMagic...)
	frame = binary.BigEndian.AppendUint32(frame, journalVersion)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	sum := sha256.Sum256(frame)
	return append(frame, sum[:]...), nil
}

// ScanJournal walks the framed records in data, stopping at the first
// frame that is incomplete, checksum-invalid, from a foreign format
// version, or otherwise malformed. It returns the records decoded up
// to that point and the byte offset of the scan frontier — everything
// past it is a torn tail to discard. ScanJournal never panics on
// arbitrary input (fuzzed).
func ScanJournal(data []byte) (recs []Record, goodLen int) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < recHeaderLen {
			return recs, off
		}
		if string(rest[:4]) != journalMagic {
			return recs, off
		}
		if binary.BigEndian.Uint32(rest[4:8]) != journalVersion {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(rest[8:12]))
		if n > maxBodyLen || len(rest) < recHeaderLen+n+recTrailer {
			return recs, off
		}
		frame := rest[:recHeaderLen+n+recTrailer]
		sum := sha256.Sum256(frame[:recHeaderLen+n])
		if string(sum[:]) != string(frame[recHeaderLen+n:]) {
			return recs, off
		}
		var rec Record
		if err := json.Unmarshal(frame[recHeaderLen:recHeaderLen+n], &rec); err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += len(frame)
	}
}

// latestPerID collapses a replay history to the newest record per job
// (later frames supersede earlier ones), ordered by submit sequence so
// re-enqueued jobs keep their original FIFO position.
func latestPerID(recs []Record) []Record {
	last := make(map[string]Record, len(recs))
	for _, rec := range recs {
		last[rec.ID] = rec
	}
	live := make([]Record, 0, len(last))
	for _, rec := range last {
		live = append(live, rec)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].Seq < live[b].Seq })
	return live
}
