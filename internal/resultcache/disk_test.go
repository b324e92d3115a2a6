package resultcache

// Crash-recovery and capacity tests for the disk tier: the startup
// scrub (orphaned temp files, entries that fail the check) and the
// byte-bounded disk LRU.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filestore"
)

// canonicalFor builds the canonical JSON bytes of a minimal report.
func canonicalFor(t *testing.T, benchmark string) []byte {
	t.Helper()
	data, err := core.CanonicalJSON(&core.Report{Benchmark: benchmark, DynTotal: 42})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeKey computes-and-stores a fixed report under key.
func storeKey(t *testing.T, c *Cache, key, benchmark string) {
	t.Helper()
	_, err := c.GetOrCompute(context.Background(), key, func(context.Context) (*core.Report, error) {
		return &core.Report{Benchmark: benchmark, DynTotal: 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// entryPath is the disk entry file for key under dir.
func entryPath(dir, key string) string { return filepath.Join(dir, key+entryFormat.Ext) }

// checkEntry requires key's file under dir to be an entry for key
// holding want.
func checkEntry(t *testing.T, dir, key string, want []byte) {
	t.Helper()
	data, err := os.ReadFile(entryPath(dir, key))
	if err != nil {
		t.Fatalf("no entry for %s: %v", key, err)
	}
	got, body, err := entryFormat.Decode(data)
	if err != nil || got != key || !bytes.Equal(body, want) {
		t.Fatalf("entry for %s: key %q, err %v, body equal %v", key, got, err, bytes.Equal(body, want))
	}
}

func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestStartupScrub pins crash recovery: orphaned temp files are
// deleted and counted, entries that fail the check are deleted and
// counted, and valid entries survive into the index.
func TestStartupScrub(t *testing.T) {
	dir := t.TempDir()
	valid := canonicalFor(t, "goban")
	good := entryFormat.Encode("aaaa", valid)
	writes := map[string][]byte{
		"aaaa.json":        good,                                            // survives
		"bbbb.json":        entryFormat.Encode("bbbb", valid)[:len(good)-5], // truncated: deleted
		"cccc.json":        append(entryFormat.Encode("cccc", valid), '\n'), // trailing garbage: deleted
		"dddd.json":        valid,                                           // bare JSON, the format before the envelope: deleted
		"eeee.json":        entryFormat.Encode("ffff", valid),               // filed under another key: deleted
		"tmp-123.partial":  []byte("half-written"),                          // crash orphan of the old temp pattern: deleted
		"tmp-zzzz.partial": nil,                                             // empty crash orphan: deleted
		"stray.tmp":        []byte("crash orphan"),                          // *.tmp orphan: deleted
		"README":           []byte("not a cache entry"),                     // foreign file: left alone
	}
	for name, data := range writes {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats.TmpOrphans.Value(); got != 3 {
		t.Errorf("TmpOrphans = %d, want 3", got)
	}
	if got := c.Stats.Corrupt.Value(); got != 4 {
		t.Errorf("Corrupt = %d, want 4", got)
	}
	bytes, entries := c.DiskUsage()
	if entries != 1 || bytes != int64(len(good)) {
		t.Errorf("DiskUsage = (%d, %d), want (%d, 1)", bytes, entries, len(good))
	}
	files := dirFiles(t, dir)
	want := map[string]bool{"aaaa.json": true, "README": true}
	if len(files) != 2 {
		t.Fatalf("scrub left %v, want exactly %v", files, want)
	}
	for _, f := range files {
		if !want[f] {
			t.Errorf("scrub left unexpected file %s", f)
		}
	}

	// The surviving entry is servable without recomputation.
	rep, err := c.GetOrCompute(context.Background(), "aaaa", func(context.Context) (*core.Report, error) {
		t.Fatal("scrubbed-valid entry recomputed")
		return nil, nil
	})
	if err != nil || rep.Benchmark != "goban" {
		t.Fatalf("scrubbed entry unreadable: %v %v", rep, err)
	}
	if c.Stats.DiskHits.Value() != 1 {
		t.Errorf("DiskHits = %d, want 1", c.Stats.DiskHits.Value())
	}
}

// TestDiskByteBoundEviction pins the disk capacity bound: storing past
// MaxDiskBytes evicts the least-recently-used entry files, a diskGet
// touch protects an entry from eviction, and the index stays
// consistent with the directory.
func TestDiskByteBoundEviction(t *testing.T) {
	dir := t.TempDir()
	entrySize := filestore.Size("a1", len(canonicalFor(t, "w")))
	// Memory tier of 1 forces reads of older keys through the disk
	// tier (so recency touches are observable); room for 3 entries on
	// disk.
	c, err := NewWith(Options{MaxEntries: 1, Dir: dir, MaxDiskBytes: 3 * entrySize})
	if err != nil {
		t.Fatal(err)
	}

	storeKey(t, c, "a1", "w")
	storeKey(t, c, "a2", "w")
	storeKey(t, c, "a3", "w")
	if _, entries := c.DiskUsage(); entries != 3 {
		t.Fatalf("disk entries = %d, want 3", entries)
	}

	// Touch a1 via a disk hit (memory only holds a3), then store a4:
	// the LRU victim must be a2, not the freshly touched a1.
	if _, err := c.GetOrCompute(context.Background(), "a1", func(context.Context) (*core.Report, error) {
		t.Fatal("a1 should be a disk hit")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	storeKey(t, c, "a4", "w")

	if got := c.Stats.DiskEvictions.Value(); got != 1 {
		t.Fatalf("DiskEvictions = %d, want 1", got)
	}
	if _, err := os.Stat(entryPath(dir, "a2")); !os.IsNotExist(err) {
		t.Error("a2 should have been evicted from disk")
	}
	for _, keep := range []string{"a1", "a3", "a4"} {
		if _, err := os.Stat(entryPath(dir, keep)); err != nil {
			t.Errorf("%s missing from disk: %v", keep, err)
		}
	}
	bytes, entries := c.DiskUsage()
	if entries != 3 || bytes != 3*entrySize {
		t.Errorf("DiskUsage = (%d, %d), want (%d, 3)", bytes, entries, 3*entrySize)
	}

	// An evicted entry is a clean miss: it recomputes and re-enters.
	computed := false
	if _, err := c.GetOrCompute(context.Background(), "a2", func(context.Context) (*core.Report, error) {
		computed = true
		return &core.Report{Benchmark: "w", DynTotal: 42}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Fatal("evicted entry served without recompute")
	}
}

// TestDiskBoundAtStartup pins that the scrub enforces the byte bound
// on a pre-existing oversized directory, evicting oldest-first, and
// that a single oversized entry is kept rather than thrashed.
func TestDiskBoundAtStartup(t *testing.T) {
	dir := t.TempDir()
	big, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keys in the order they were written: b1 oldest, b3 newest.
	keys := []string{"b1", "b2", "b3"}
	entrySize := filestore.Size("b1", len(canonicalFor(t, "w")))
	for _, k := range keys {
		storeKey(t, big, k, "w")
	}
	// Oldest-first eviction depends on distinct mtimes; force them.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(entryPath(dir, k), ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewWith(Options{Dir: dir, MaxDiskBytes: 2 * entrySize})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats.DiskEvictions.Value(); got != 1 {
		t.Fatalf("startup DiskEvictions = %d, want 1", got)
	}
	if _, err := os.Stat(entryPath(dir, "b1")); !os.IsNotExist(err) {
		t.Error("oldest entry should be the startup eviction victim")
	}

	// A bound smaller than one entry still keeps the newest entry.
	tiny, err := NewWith(Options{Dir: dir, MaxDiskBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, entries := tiny.DiskUsage(); entries != 1 {
		t.Fatalf("tiny bound kept %d entries, want exactly the newest", entries)
	}
	if _, err := os.Stat(entryPath(dir, "b3")); err != nil {
		t.Errorf("newest entry must survive an undersized bound: %v", err)
	}
}
