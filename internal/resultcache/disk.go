package resultcache

// The disk tier stores one file per key, <dir>/<fingerprint>.json,
// holding exactly the canonical report JSON. Writes go through a temp
// file in the same directory followed by an atomic rename, so readers
// never observe a half-written entry.
//
// A read checks the entry before serving it, in one of two ways. The
// index records the SHA-256 of every entry this process wrote, and of
// every entry it checked with the canonical round trip (the bytes
// decode and re-encode to themselves): at the startup scrub, and on the
// first read of an entry another process wrote into a shared directory.
// A read of an entry with a recorded digest hashes the file and
// compares, with no decode; a read of any other entry takes the round
// trip and records the digest. An entry that fails its check is dropped
// and recomputed. Reports are deterministic per key, so a legitimate
// rewrite never changes an entry's digest.
//
// So truncation, trailing garbage, a schema change, and any edit made
// after this process wrote or checked the entry (one changed digit
// included) cost one recompute. What the round trip alone cannot catch
// is an edit that leaves valid canonical JSON, such as a changed digit,
// made while no process held the directory: the scrub accepts it and
// the edited report is served. Storing the digest in the file would
// close that case; it is a format change this tier has not made.
//
// Crash safety is handled at startup: opening a cache scrubs its
// directory, deleting the orphaned temp files a crash mid-write
// leaves behind (they would otherwise accumulate forever) and
// re-verifying every entry so the first request after a crash never
// pays a corruption detour. The scrub also seeds the disk LRU index:
// the tier is capacity-bounded (Options.MaxDiskBytes) and evicts the
// least-recently-used entry files once the bound is exceeded, so a
// long-lived daemon cannot fill the disk.

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// tmpPattern is the os.CreateTemp pattern for in-progress writes; the
// scrub deletes anything matching it.
const (
	tmpPrefix = "tmp-"
	tmpSuffix = ".partial"
)

// diskIndex tracks the disk tier's entries in recency order so the
// byte bound can evict the least-recently-used file. It is guarded by
// its own mutex: disk I/O must not serialize behind the memory tier's
// lock.
type diskIndex struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *diskEntry
	byKey map[string]*list.Element
	bytes int64
}

// diskEntry is one on-disk entry's index record: its size, and the
// digest of the bytes this process wrote or checked.
type diskEntry struct {
	key  string
	size int64
	sum  [sha256.Size]byte
}

// initDisk prepares the disk tier: directory creation, the crash
// scrub, index construction, and the initial capacity enforcement.
// No-op when the tier is disabled.
func (c *Cache) initDisk() error {
	if c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	c.disk.lru = list.New()
	c.disk.byKey = make(map[string]*list.Element)
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	type scanned struct {
		key  string
		size int64
		sum  [sha256.Size]byte
		mod  int64
	}
	var valid []scanned
	for _, e := range names {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(c.dir, name)
		switch {
		case strings.HasPrefix(name, tmpPrefix) && strings.HasSuffix(name, tmpSuffix),
			strings.HasSuffix(name, ".tmp"):
			// A crash between CreateTemp and Rename orphaned this file.
			// Our own pattern is tmp-*.partial, but generic *.tmp names
			// (other tools' atomic-write convention in a shared dir)
			// are the same in-progress garbage and scrub identically.
			os.Remove(path)
			c.Stats.TmpOrphans.Inc()
		case strings.HasSuffix(name, ".json"):
			data, err := os.ReadFile(path)
			if err != nil || !validCanonical(data) {
				os.Remove(path)
				c.Stats.Corrupt.Inc()
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			valid = append(valid, scanned{
				key:  strings.TrimSuffix(name, ".json"),
				size: int64(len(data)),
				sum:  sha256.Sum256(data),
				mod:  info.ModTime().UnixNano(),
			})
		}
	}
	// Rebuild recency from file modification times: oldest written
	// lands at the LRU tail and is evicted first.
	sort.Slice(valid, func(i, j int) bool { return valid[i].mod < valid[j].mod })
	c.disk.mu.Lock()
	for _, v := range valid {
		c.disk.byKey[v.key] = c.disk.lru.PushFront(&diskEntry{key: v.key, size: v.size, sum: v.sum})
		c.disk.bytes += v.size
	}
	c.evictDiskLocked()
	c.disk.mu.Unlock()
	return nil
}

// diskPath is the entry file for a key. Keys are hex fingerprints, so
// they are safe as file names.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// diskGet reads and checks the disk entry for key: against its
// recorded digest when the index has one, else with the canonical round
// trip. Invalid entries are removed so the slot heals on the next
// store; valid reads record the digest and touch the LRU index, so hot
// entries survive the byte bound.
func (c *Cache) diskGet(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(data)
	known, indexed := c.diskSum(key)
	valid := sum == known
	if !indexed {
		valid = validCanonical(data)
	}
	if !valid {
		c.Stats.Corrupt.Inc()
		os.Remove(path)
		c.diskForget(key)
		return nil, false
	}
	c.diskTouch(key, int64(len(data)), sum)
	return data, true
}

// diskSum returns the digest the index records for key.
func (c *Cache) diskSum(key string) (sum [sha256.Size]byte, ok bool) {
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	if el, ok := c.disk.byKey[key]; ok {
		return el.Value.(*diskEntry).sum, true
	}
	return sum, false
}

// validCanonical reports whether data is a canonical report
// serialization: it decodes as a Report and re-encodes to the same
// bytes. Trailing garbage, truncation, bit rot, or a schema change
// since the entry was written all fail the round trip.
func validCanonical(data []byte) bool {
	rep, err := decodeReport(data)
	if err != nil {
		return false
	}
	out, err := core.CanonicalJSON(rep)
	if err != nil {
		return false
	}
	return bytes.Equal(out, data)
}

// diskPut writes an entry atomically: temp file in the cache
// directory, then rename over the final path. Failures are counted
// and swallowed — the disk tier is an accelerator, not a source of
// truth, and the entry stays served from memory. A successful write
// updates the LRU index and may evict older entries past the byte
// bound.
func (c *Cache) diskPut(key string, data []byte) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, tmpPrefix+"*"+tmpSuffix)
	if err != nil {
		c.Stats.DiskErrors.Inc()
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName)
		c.Stats.DiskErrors.Inc()
		return
	}
	if err := os.Rename(tmpName, c.diskPath(key)); err != nil {
		os.Remove(tmpName)
		c.Stats.DiskErrors.Inc()
		return
	}
	c.diskTouch(key, int64(len(data)), sha256.Sum256(data))
}

// diskTouch marks key most recently used, inserting or updating its
// index record with the entry's size and digest, and enforces the byte
// bound.
func (c *Cache) diskTouch(key string, size int64, sum [sha256.Size]byte) {
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	if el, ok := c.disk.byKey[key]; ok {
		de := el.Value.(*diskEntry)
		c.disk.bytes += size - de.size
		de.size, de.sum = size, sum
		c.disk.lru.MoveToFront(el)
	} else {
		c.disk.byKey[key] = c.disk.lru.PushFront(&diskEntry{key: key, size: size, sum: sum})
		c.disk.bytes += size
	}
	c.evictDiskLocked()
}

// diskForget drops key's index record (its file is already gone).
func (c *Cache) diskForget(key string) {
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	if el, ok := c.disk.byKey[key]; ok {
		c.disk.bytes -= el.Value.(*diskEntry).size
		c.disk.lru.Remove(el)
		delete(c.disk.byKey, key)
	}
}

// evictDiskLocked deletes least-recently-used entry files until the
// tier is back under its byte bound. The most recent entry is always
// kept: a single oversized report should be served from disk, not
// thrashed. Caller holds c.disk.mu.
func (c *Cache) evictDiskLocked() {
	if c.maxDiskBytes <= 0 {
		return
	}
	for c.disk.bytes > c.maxDiskBytes && c.disk.lru.Len() > 1 {
		el := c.disk.lru.Back()
		de := el.Value.(*diskEntry)
		os.Remove(c.diskPath(de.key))
		c.disk.lru.Remove(el)
		delete(c.disk.byKey, de.key)
		c.disk.bytes -= de.size
		c.Stats.DiskEvictions.Inc()
	}
}

// DiskUsage returns the disk tier's current total entry bytes and
// entry count (both zero when the tier is disabled).
func (c *Cache) DiskUsage() (bytes int64, entries int) {
	if c.dir == "" {
		return 0, 0
	}
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	return c.disk.bytes, c.disk.lru.Len()
}
