// Package filestore is the crash-safe directory protocol under the
// result cache's disk tier and the checkpoint store. A store is a
// directory with one file per key, <key><ext>, holding a
// self-validating envelope:
//
//	magic | u32 version | u32 keyLen | key | u64 bodyLen | body | sha256
//
// The integers are little-endian, and the SHA-256 covers every byte
// before it. Each owner fixes its own magic, version and extension
// (Format), so a cache entry never reads as a snapshot.
//
// A write encodes the envelope into a temp file in the same directory
// (an os.CreateTemp name ending .tmp) and renames it over the entry, so
// a reader never sees half an entry under a real name. No fsync is
// issued: a file torn by a crash fails its check. A failed write
// removes its temp file and leaves the previous entry as it was.
//
// Every entry gets one check, the same at the scrub and on every read:
// the envelope decodes under the store's format, the SHA-256 matches,
// and the key inside equals the file's name. Opening a store scrubs
// its directory: temp files a crash left behind are removed, and every
// entry is checked. An entry that fails the check is removed and
// reported to the owner, which recomputes instead of trusting it. Files
// that are neither entries nor temp files are left alone.
//
// Keys are lowercase hex (both owners key by result-cache
// fingerprints), so they are safe as file names.
package filestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Format fixes what a store's files look like.
type Format struct {
	Magic   [4]byte
	Version uint32
	Ext     string // an entry's file name is its key plus Ext
	// OldTemp, if set, is a filepath.Match pattern for the temp files
	// an earlier writer used; the scrub removes them with the *.tmp
	// ones.
	OldTemp string
}

const (
	tmpSuffix   = ".tmp"
	headerLen   = 4 + 4 + 4 // magic, version, key length
	bodyLenLen  = 8
	checksumLen = sha256.Size
	// maxKeyLen bounds the key field: fingerprints are 64 hex
	// characters, and anything near this bound is hostile input.
	maxKeyLen = 1 << 10
)

// Decode failures. Every one means the file is not an entry to trust.
var (
	ErrMagic     = errors.New("filestore: bad magic")
	ErrVersion   = errors.New("filestore: format version mismatch")
	ErrTruncated = errors.New("filestore: truncated input")
	ErrMalformed = errors.New("filestore: malformed input")
	ErrChecksum  = errors.New("filestore: checksum mismatch")
)

// Size is the length of the file that holds an entry for key with an
// n-byte body.
func Size(key string, n int) int64 {
	return int64(headerLen + len(key) + bodyLenLen + n + checksumLen)
}

// Encode wraps body in f's envelope.
func (f Format) Encode(key string, body []byte) []byte {
	out := make([]byte, 0, Size(key, len(body)))
	out = append(out, f.Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, f.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
	out = append(out, key...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Decode checks data's envelope under f and returns its key and body;
// the body aliases data. It never panics on arbitrary input. Short
// input, another magic or version, lengths that do not frame data
// exactly and a checksum mismatch are each an error, so whatever it
// accepts re-encodes to data byte for byte.
func (f Format) Decode(data []byte) (key string, body []byte, err error) {
	k, body, err := f.decode(data)
	return string(k), body, err
}

func (f Format) decode(data []byte) (key, body []byte, err error) {
	if len(data) < len(f.Magic) {
		return nil, nil, ErrTruncated
	}
	if [4]byte(data) != f.Magic {
		return nil, nil, ErrMagic
	}
	if len(data) < headerLen {
		return nil, nil, ErrTruncated
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != f.Version {
		return nil, nil, fmt.Errorf("%w: file has v%d, this binary reads v%d", ErrVersion, v, f.Version)
	}
	keyLen := binary.LittleEndian.Uint32(data[8:])
	if keyLen > maxKeyLen {
		return nil, nil, ErrMalformed
	}
	rest := data[headerLen:]
	if len(rest) < int(keyLen)+bodyLenLen+checksumLen {
		return nil, nil, ErrTruncated
	}
	key, rest = rest[:keyLen], rest[keyLen:]
	bodyLen := binary.LittleEndian.Uint64(rest)
	rest = rest[bodyLenLen:]
	if n := uint64(len(rest) - checksumLen); bodyLen != n {
		if bodyLen > n {
			return nil, nil, ErrTruncated
		}
		return nil, nil, ErrMalformed // trailing bytes
	}
	if sum := sha256.Sum256(data[:len(data)-checksumLen]); [checksumLen]byte(rest[bodyLen:]) != sum {
		return nil, nil, ErrChecksum
	}
	return key, rest[:bodyLen:bodyLen], nil
}

// Store is a directory of entries under one Format. Its methods are
// safe for concurrent use; writers of one key must not race each other
// (both owners run one computation per key at a time).
type Store struct {
	dir     string
	format  Format
	dropped func(error)
}

// Entry is an entry that passed the scrub.
type Entry struct {
	Key  string
	Size int64     // file bytes
	Mod  time.Time // the file's modification time
}

// Scrub is what opening a store found.
type Scrub struct {
	Temps   int     // temp files removed
	Entries []Entry // entries that passed the check, in name order
}

// Open creates dir if needed and scrubs it. dropped is called with the
// reason for every entry the store removes because it failed its
// check, at this scrub and on every later read.
func Open(dir string, f Format, dropped func(error)) (*Store, Scrub, error) {
	var scrub Scrub
	if dir == "" {
		return nil, scrub, errors.New("filestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, scrub, err
	}
	s := &Store{dir: filepath.Clean(dir), format: f, dropped: dropped}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, scrub, err
	}
	for _, ent := range ents {
		name := ent.Name()
		path := filepath.Join(s.dir, name)
		key, isEntry := strings.CutSuffix(name, f.Ext)
		switch {
		case ent.IsDir():
		case s.isTemp(name):
			if os.Remove(path) == nil {
				scrub.Temps++
			}
		case isEntry:
			data, err := os.ReadFile(path)
			if err == nil {
				_, err = s.check(key, data)
			}
			if err != nil {
				s.drop(path, err)
				continue
			}
			if info, err := ent.Info(); err == nil {
				scrub.Entries = append(scrub.Entries, Entry{Key: key, Size: int64(len(data)), Mod: info.ModTime()})
			}
		}
	}
	return s, scrub, nil
}

// isTemp reports whether name is a write that never reached its rename.
func (s *Store) isTemp(name string) bool {
	if strings.HasSuffix(name, tmpSuffix) {
		return true
	}
	old, _ := filepath.Match(s.format.OldTemp, name)
	return old
}

// check is the one check every entry gets.
func (s *Store) check(name string, data []byte) ([]byte, error) {
	key, body, err := s.format.decode(data)
	if err == nil && (string(key) != name || !validKey(name)) {
		err = fmt.Errorf("%w: key %q filed as %q", ErrMalformed, key, name)
	}
	return body, err
}

// drop removes an entry that failed its check and reports why.
func (s *Store) drop(path string, err error) {
	os.Remove(path)
	s.dropped(err)
}

// validKey reports whether key is non-empty lowercase hex of at most
// maxKeyLen characters.
func validKey(key string) bool {
	if key == "" || len(key) > maxKeyLen {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func errKey(key string) error { return fmt.Errorf("filestore: unusable key %q", key) }

func (s *Store) path(key string) string {
	return s.dir + string(filepath.Separator) + key + s.format.Ext
}

// Write stores body under key, replacing any entry there.
func (s *Store) Write(key string, body []byte) error {
	if !validKey(key) {
		return errKey(key)
	}
	tmp, err := os.CreateTemp(s.dir, "*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(s.format.Encode(key, body))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Read returns the body stored under key, after the check. An error
// means there is nothing to serve: no entry (fs.ErrNotExist), an
// unreadable file, or an entry that failed the check, which Read has
// removed and reported.
func (s *Store) Read(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, errKey(key)
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := s.check(key, data)
	if err != nil {
		s.drop(path, err)
		return nil, err
	}
	return body, nil
}

// Remove deletes key's entry and reports whether there was one.
func (s *Store) Remove(key string) bool {
	return validKey(key) && os.Remove(s.path(key)) == nil
}

// Keys lists the keys that have an entry file, sorted (ReadDir sorts
// by name, and under one extension name order is key order). The files
// were checked at the scrub or when written; one damaged since is
// caught by Read.
func (s *Store) Keys() []string {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var keys []string
	for _, ent := range ents {
		if key, ok := strings.CutSuffix(ent.Name(), s.format.Ext); ok && validKey(key) {
			keys = append(keys, key)
		}
	}
	return keys
}
