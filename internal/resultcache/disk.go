package resultcache

// The disk tier keeps one file per key, <dir>/<fingerprint>.json,
// through filestore, which writes it through a temp file and a rename
// and runs one check at the startup scrub and on every read, whichever
// process wrote the entry: the envelope, its SHA-256 and its key (see
// filestore's package comment). The file holds the envelope, under the
// magic "IRCE", around the canonical report JSON; the .json name
// predates it. An entry that fails the check is removed, counted in
// corrupt_disk_entries and recomputed, and no check decodes a report.
// A bare-JSON entry an earlier build wrote fails once and is rewritten
// in the envelope when its report is next computed.
//
// What this file keeps is the disk LRU index, seeded from the scrub's
// survivors by modification time: the tier is capacity-bounded
// (Options.MaxDiskBytes) and evicts the least-recently-used entry files
// past the bound, so a long-lived daemon cannot fill the disk.

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/filestore"
)

// entryFormat is a disk entry's envelope. OldTemp is the temp-file
// pattern the tier used before filestore, so the scrub still removes
// those orphans.
var entryFormat = filestore.Format{Magic: [4]byte{'I', 'R', 'C', 'E'}, Version: 1, Ext: ".json", OldTemp: "tmp-*.partial"}

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

// diskEntry is one on-disk entry's index record: its file size.
type diskEntry struct {
	key  string
	size int64
}

// initDisk opens the disk tier under dir: directory creation, the
// crash scrub, index construction, and the initial capacity
// enforcement. No-op when dir is empty (memory only).
func (c *Cache) initDisk(dir string) error {
	if dir == "" {
		return nil
	}
	files, scrub, err := filestore.Open(dir, entryFormat, func(error) { c.Stats.Corrupt.Inc() })
	if err != nil {
		return err
	}
	c.files = files
	c.Stats.TmpOrphans.Add(uint64(scrub.Temps))
	c.disk.lru = list.New()
	c.disk.byKey = make(map[string]*list.Element)
	// Rebuild recency from file modification times: oldest written
	// lands at the LRU tail and is evicted first.
	entries := scrub.Entries
	sort.Slice(entries, func(i, j int) bool { return entries[i].Mod.Before(entries[j].Mod) })
	for _, e := range entries {
		c.diskTouch(e.Key, e.Size)
	}
	return nil
}

// diskGet reads and checks the disk entry for key. An entry that fails
// the check is gone when this returns (filestore removed and counted
// it), so the slot heals on the next store; a valid read touches the
// LRU index, so hot entries survive the byte bound.
func (c *Cache) diskGet(key string) ([]byte, bool) {
	if c.files == nil {
		return nil, false
	}
	data, err := c.files.Read(key)
	if err != nil {
		c.diskForget(key)
		return nil, false
	}
	c.diskTouch(key, filestore.Size(key, len(data)))
	return data, true
}

// diskPut writes an entry atomically. Failures are counted and
// swallowed — the disk tier is an accelerator, not a source of truth,
// and the entry stays served from memory. A successful write updates
// the LRU index and may evict older entries past the byte bound.
func (c *Cache) diskPut(key string, data []byte) {
	if c.files == nil {
		return
	}
	if err := c.files.Write(key, data); err != nil {
		c.Stats.DiskErrors.Inc()
		return
	}
	c.diskTouch(key, filestore.Size(key, len(data)))
}

// diskTouch marks key most recently used, inserting or updating its
// index record with the entry's file size, and enforces the byte
// bound.
func (c *Cache) diskTouch(key string, size int64) {
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	if el, ok := c.disk.byKey[key]; ok {
		de := el.Value.(*diskEntry)
		c.disk.bytes += size - de.size
		de.size = size
		c.disk.lru.MoveToFront(el)
	} else {
		c.disk.byKey[key] = c.disk.lru.PushFront(&diskEntry{key: key, size: size})
		c.disk.bytes += size
	}
	c.evictDiskLocked()
}

// diskForget drops key's index record (its file is gone or unusable).
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
		c.files.Remove(de.key)
		c.disk.lru.Remove(el)
		delete(c.disk.byKey, de.key)
		c.disk.bytes -= de.size
		c.Stats.DiskEvictions.Inc()
	}
}

// DiskUsage returns the disk tier's current total entry file bytes and
// entry count (both zero when the tier is disabled).
func (c *Cache) DiskUsage() (bytes int64, entries int) {
	if c.files == nil {
		return 0, 0
	}
	c.disk.mu.Lock()
	defer c.disk.mu.Unlock()
	return c.disk.bytes, c.disk.lru.Len()
}
