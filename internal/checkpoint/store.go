package checkpoint

import (
	"errors"
	"fmt"

	"repro/internal/filestore"
	"repro/internal/obs"
)

// Stats are the store's observability counters, exported on /metrics
// under the checkpoint_ prefix and snapshotted with StatValues.
type Stats struct {
	Writes          obs.Counter // snapshots written (temp+rename completed)
	WriteErrors     obs.Counter // snapshot writes that failed (run continues uncheckpointed)
	Resumes         obs.Counter // runs restarted from a snapshot
	ResumeRejected  obs.Counter // snapshots that loaded but failed state restore
	Corrupt         obs.Counter // snapshots that failed the check, deleted (bad magic/length/checksum/key)
	VersionMismatch obs.Counter // snapshots from another format version deleted
	Scrubbed        obs.Counter // stale temp files removed by the startup scrub
	Removed         obs.Counter // snapshots deleted after their run completed
}

// Store is a directory of checkpoint files, <key>.ckpt, one per
// result-cache fingerprint, kept by filestore. All methods are safe
// for concurrent use by independent keys; the run path guarantees one
// writer per key at a time (the result cache already deduplicates
// in-flight runs per fingerprint).
type Store struct {
	files *filestore.Store

	Stats Stats
}

// Open creates (if needed) and scrubs the checkpoint directory:
// orphaned temp files from a crash mid-write are deleted and counted,
// and every checkpoint file is checked; corrupt or version-mismatched
// snapshots are deleted and counted so a resume can never start from
// one. Files that don't look like checkpoints at all are left alone.
func Open(dir string) (*Store, error) {
	s := &Store{}
	files, scrub, err := filestore.Open(dir, format, s.drop)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.files = files
	s.Stats.Scrubbed.Add(uint64(scrub.Temps))
	return s, nil
}

// drop counts a snapshot the file store deleted because it failed the
// check, at the scrub or at Load.
func (s *Store) drop(err error) {
	if errors.Is(err, ErrVersion) {
		s.Stats.VersionMismatch.Inc()
	} else {
		s.Stats.Corrupt.Inc()
	}
}

// Write atomically persists body as the snapshot for key, replacing
// any previous one. Keys are result-cache fingerprints (lowercase hex);
// anything else is rejected. A failure leaves the previous snapshot (if
// any) intact and is counted; the caller keeps running uncheckpointed.
func (s *Store) Write(key string, body []byte) error {
	if err := s.files.Write(key, body); err != nil {
		s.Stats.WriteErrors.Inc()
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.Stats.Writes.Inc()
	return nil
}

// Load returns the snapshot body for key, or ok=false when there is
// none to resume from. A file that exists but fails the check is
// counted, deleted, and reported as absent — the caller falls back to
// a fresh run, never a panic and never a wrong report.
func (s *Store) Load(key string) (body []byte, ok bool) {
	body, err := s.files.Read(key)
	return body, err == nil
}

// Remove deletes the snapshot for key, counting only if a file was
// actually removed. The run path calls it after a run completes so a
// finished measurement can't be "resumed".
func (s *Store) Remove(key string) {
	if s.files.Remove(key) {
		s.Stats.Removed.Inc()
	}
}

// RejectResume records a snapshot that decoded but whose state failed
// to restore (observer-level validation), and deletes it.
func (s *Store) RejectResume(key string) {
	s.Stats.ResumeRejected.Inc()
	s.files.Remove(key)
}

// Keys lists the fingerprints with a snapshot on disk, sorted. (The
// check ran at Open; a file corrupted since then is still caught at
// Load.)
func (s *Store) Keys() []string { return s.files.Keys() }

// StatValues snapshots every store counter (plus the live snapshot
// count), name-sorted, for the server's /metrics document.
func (s *Store) StatValues() []obs.NamedValue {
	return []obs.NamedValue{
		{Name: "corrupt_dropped", Value: int64(s.Stats.Corrupt.Value())},
		{Name: "removed", Value: int64(s.Stats.Removed.Value())},
		{Name: "resume_rejected", Value: int64(s.Stats.ResumeRejected.Value())},
		{Name: "resumes", Value: int64(s.Stats.Resumes.Value())},
		{Name: "snapshots", Value: int64(len(s.Keys()))},
		{Name: "tmp_scrubbed", Value: int64(s.Stats.Scrubbed.Value())},
		{Name: "version_mismatch_dropped", Value: int64(s.Stats.VersionMismatch.Value())},
		{Name: "write_errors", Value: int64(s.Stats.WriteErrors.Value())},
		{Name: "writes", Value: int64(s.Stats.Writes.Value())},
	}
}
