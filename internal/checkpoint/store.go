package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// fileExt is the checkpoint file suffix; in-progress writes use
// fileExt+tmpSuffix and are renamed into place, so a crash mid-write
// leaves a temp orphan (scrubbed at startup), never a half snapshot
// under the real name.
const (
	fileExt   = ".ckpt"
	tmpSuffix = ".tmp"
)

// Stats are the store's observability counters, exported on /metrics
// under the checkpoint_ prefix and snapshotted with StatValues.
type Stats struct {
	Writes          obs.Counter // snapshots written (temp+rename completed)
	WriteErrors     obs.Counter // snapshot writes that failed (run continues uncheckpointed)
	Resumes         obs.Counter // runs restarted from a snapshot
	ResumeRejected  obs.Counter // snapshots that loaded but failed state restore
	Corrupt         obs.Counter // undecodable snapshots deleted (bad magic/length/checksum)
	VersionMismatch obs.Counter // snapshots from another format version deleted
	Scrubbed        obs.Counter // stale temp files removed by the startup scrub
	Removed         obs.Counter // snapshots deleted after their run completed
}

// Store is a directory of checkpoint files, one per result-cache
// fingerprint. All methods are safe for concurrent use by independent
// keys; the run path guarantees one writer per key at a time (the
// result cache already deduplicates in-flight runs per fingerprint).
type Store struct {
	dir string

	Stats Stats
}

// Open creates (if needed) and scrubs the checkpoint directory,
// mirroring the result cache's disk scrub: orphaned temp files from a
// crash mid-write are deleted and counted, and every checkpoint file
// is re-validated through Decode — corrupt or version-mismatched
// snapshots are deleted and counted so a resume can never start from
// one. Files that don't look like checkpoints at all are left alone.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// Any *.tmp is an in-progress write that never reached its
			// rename — ours are fileExt+tmpSuffix, but a SIGKILL can
			// also strand os.CreateTemp names that lost the extension,
			// so the whole suffix class is garbage by convention.
			if os.Remove(filepath.Join(dir, name)) == nil {
				s.Stats.Scrubbed.Inc()
			}
		case strings.HasSuffix(name, fileExt):
			s.validate(filepath.Join(dir, name), strings.TrimSuffix(name, fileExt))
		}
	}
	return s, nil
}

// validate decodes the file and deletes it (with the right counter)
// when it cannot be resumed from: unreadable, undecodable, foreign
// format version, or filed under the wrong key.
func (s *Store) validate(path, wantKey string) {
	data, err := os.ReadFile(path)
	if err != nil {
		s.drop(path, err)
		return
	}
	key, _, err := Decode(data)
	if err != nil || key != wantKey {
		if err == nil {
			err = fmt.Errorf("%w: key %q filed as %q", ErrMalformed, key, wantKey)
		}
		s.drop(path, err)
	}
}

// drop deletes an unusable checkpoint file and counts why.
func (s *Store) drop(path string, err error) {
	if errors.Is(err, ErrVersion) {
		s.Stats.VersionMismatch.Inc()
	} else {
		s.Stats.Corrupt.Inc()
	}
	os.Remove(path)
}

// path maps a key to its checkpoint file. Keys are result-cache
// fingerprints (lowercase hex), so they are filename-safe by
// construction; anything else is rejected by Write/Load.
func (s *Store) path(key string) (string, bool) {
	if key == "" || len(key) > MaxKeyLen {
		return "", false
	}
	for _, c := range key {
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
		if !ok {
			return "", false
		}
	}
	return filepath.Join(s.dir, key+fileExt), true
}

// Write atomically persists body as the snapshot for key, replacing
// any previous one: encode to a temp file in the same directory, then
// rename into place. A failure leaves the previous snapshot (if any)
// intact and is counted; the caller keeps running uncheckpointed.
func (s *Store) Write(key string, body []byte) error {
	path, ok := s.path(key)
	if !ok {
		s.Stats.WriteErrors.Inc()
		return fmt.Errorf("checkpoint: unusable key %q", key)
	}
	err := func() error {
		tmp := path + tmpSuffix
		if err := os.WriteFile(tmp, Encode(key, body), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return err
		}
		return nil
	}()
	if err != nil {
		s.Stats.WriteErrors.Inc()
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.Stats.Writes.Inc()
	return nil
}

// Load returns the snapshot body for key, or ok=false when there is
// none to resume from. A file that exists but fails validation is
// counted, deleted, and reported as absent — the caller falls back to
// a fresh run, never a panic and never a wrong report.
func (s *Store) Load(key string) (body []byte, ok bool) {
	path, pok := s.path(key)
	if !pok {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	gotKey, body, err := Decode(data)
	if err != nil || gotKey != key {
		if err == nil {
			err = ErrMalformed
		}
		s.drop(path, err)
		return nil, false
	}
	return body, true
}

// Remove deletes the snapshot for key, counting only if a file was
// actually removed. The run path calls it after a run completes so a
// finished measurement can't be "resumed".
func (s *Store) Remove(key string) {
	path, ok := s.path(key)
	if !ok {
		return
	}
	if os.Remove(path) == nil {
		s.Stats.Removed.Inc()
	}
}

// RejectResume records a snapshot that decoded but whose state failed
// to restore (observer-level validation), and deletes it.
func (s *Store) RejectResume(key string) {
	s.Stats.ResumeRejected.Inc()
	if path, ok := s.path(key); ok {
		os.Remove(path)
	}
}

// Keys lists the fingerprints with a resumable snapshot on disk,
// sorted. (Validation happened at Open; a file corrupted since then is
// still caught at Load.)
func (s *Store) Keys() []string {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var keys []string
	for _, ent := range ents {
		if name := ent.Name(); strings.HasSuffix(name, fileExt) {
			keys = append(keys, strings.TrimSuffix(name, fileExt))
		}
	}
	sort.Strings(keys)
	return keys
}

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
