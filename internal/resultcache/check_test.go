package resultcache

// Tests for the disk tier's one check (envelope, SHA-256, key equal to
// the file name), which the scrub and every read run the same way: it
// catches an edit whether or not a process held the directory, an
// entry filed under another key and a bare-JSON entry of the format
// before the envelope, and it decodes no report.

import (
	"bytes"
	"context"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// lzwKey files the golden lzw report in these tests.
const lzwKey = "12ab"

// goldenLZW is the golden corpus's lzw report: real canonical bytes.
func goldenLZW(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden/lzw.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodingCompute returns the report data decodes to, counting calls.
func decodingCompute(data []byte, count *atomic.Int64) func(context.Context) (*core.Report, error) {
	return func(context.Context) (*core.Report, error) {
		count.Add(1)
		return decodeReport(data)
	}
}

// editDigit changes lzw's "DynTotal": 500000 to 600000 in key's file
// under dir. The edited report is still canonical JSON: it decodes
// and re-encodes to itself.
func editDigit(t *testing.T, dir, key string) {
	t.Helper()
	path := entryPath(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"DynTotal": 500000`), []byte(`"DynTotal": 600000`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("the edit changed nothing")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEditedDiskEntryNotServed changes one digit of a stored entry on
// disk, while the cache that wrote it is open and while no cache is.
// Either way the entry is not served: corrupt_disk_entries counts it
// (at the read, or at the next open's scrub), and the recomputed
// bytes, on disk too, equal the golden report.
func TestEditedDiskEntryNotServed(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	for _, tc := range []struct {
		name   string
		reopen bool
	}{{"while open", false}, {"while closed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustCache(t, 1, dir)
			var computes atomic.Int64
			if _, err := c.GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes)); err != nil {
				t.Fatal(err)
			}
			editDigit(t, dir, lzwKey)
			if tc.reopen {
				c = mustCache(t, 1, dir)
				if n := c.Stats.Corrupt.Value(); n != 1 {
					t.Fatalf("the scrub counted %d corrupt entries, want 1", n)
				}
			} else {
				storeKey(t, c, "0ff0", "w") // pushes the entry out of the one-entry memory tier
			}

			got, err := c.GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("served %d bytes that differ from the golden report", len(got))
			}
			if computes.Load() != 2 || c.Stats.Corrupt.Value() != 1 || c.Stats.DiskHits.Value() != 0 {
				t.Errorf("computes %d, corrupt_disk_entries %d, disk hits %d; want 2, 1, 0",
					computes.Load(), c.Stats.Corrupt.Value(), c.Stats.DiskHits.Value())
			}
			checkEntry(t, dir, lzwKey, golden)
		})
	}
}

// TestEntryUnderAnotherKeyDropped copies a valid entry to another key's
// file name, while no cache is open and while one is. The copy is
// dropped and counted, at the scrub and at the read, and the original
// still serves.
func TestEntryUnderAnotherKeyDropped(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	dir := t.TempDir()
	var computes atomic.Int64
	if _, err := mustCache(t, 1, dir).GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(entryPath(dir, lzwKey))
	if err != nil {
		t.Fatal(err)
	}
	copyTo := func(key string) {
		if err := os.WriteFile(entryPath(dir, key), entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	copyTo("cafe")
	c := mustCache(t, 1, dir)
	if n, _ := c.DiskUsage(); c.Stats.Corrupt.Value() != 1 || n != int64(len(entry)) {
		t.Fatalf("scrub: corrupt %d, disk bytes %d; want 1, %d", c.Stats.Corrupt.Value(), n, len(entry))
	}
	copyTo("beef")
	if _, ok := c.diskGet("beef"); ok || c.Stats.Corrupt.Value() != 2 {
		t.Fatalf("read: served an entry filed under another key (corrupt %d)", c.Stats.Corrupt.Value())
	}
	for _, key := range []string{"cafe", "beef"} {
		if _, err := os.Stat(entryPath(dir, key)); !os.IsNotExist(err) {
			t.Errorf("the copy under %s was not removed", key)
		}
	}
	if got, ok := c.diskGet(lzwKey); !ok || !bytes.Equal(got, golden) {
		t.Error("the original entry no longer serves")
	}
}

// TestBareJSONEntryDroppedOnce plants the golden lzw report as bare
// JSON, the entry format before the envelope. The next open drops and
// counts it, the lookup recomputes the golden bytes and stores them in
// the envelope, and the open after that finds nothing to drop and
// serves them from disk.
func TestBareJSONEntryDroppedOnce(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	dir := t.TempDir()
	if err := os.WriteFile(entryPath(dir, lzwKey), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	for i, wantCorrupt := range []uint64{1, 0} {
		c := mustCache(t, 1, dir)
		got, err := c.GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatalf("open %d served bytes that differ from the golden report", i+1)
		}
		if c.Stats.Corrupt.Value() != wantCorrupt || computes.Load() != 1 {
			t.Fatalf("open %d: corrupt_disk_entries %d, computes %d; want %d, 1",
				i+1, c.Stats.Corrupt.Value(), computes.Load(), wantCorrupt)
		}
		checkEntry(t, dir, lzwKey, golden)
	}
}

// TestSharedDirEntryServed opens two caches on one directory. An entry
// the first writes after the second opened is served by the second
// from disk with no compute, and an edit made after that read is
// caught at the next one.
func TestSharedDirEntryServed(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	dir := t.TempDir()
	reader := mustCache(t, 1, dir)
	writer := mustCache(t, 1, dir)
	var computes atomic.Int64
	if _, err := writer.GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	got, err := reader.GetOrComputeJSON(ctx, lzwKey, decodingCompute(golden, &computes))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) || computes.Load() != 1 || reader.Stats.DiskHits.Value() != 1 {
		t.Fatalf("reader: %d computes, %d disk hits, golden bytes %v", computes.Load(),
			reader.Stats.DiskHits.Value(), bytes.Equal(got, golden))
	}

	editDigit(t, dir, lzwKey)
	if _, ok := reader.diskGet(lzwKey); ok || reader.Stats.Corrupt.Value() != 1 {
		t.Errorf("the reader served an entry edited after it read it (corrupt %d)", reader.Stats.Corrupt.Value())
	}
}

// TestDiskHitDecodesNothing: a disk hit on the golden lzw report
// allocates what reading the file takes, whether this cache wrote the
// entry or a second cache on the same directory did (the reader
// forgets the entry before every read, so each read is its first).
// Decoding the same report allocates several times as much, so a hit
// that decoded would allocate at least as much as the decode.
func TestDiskHitDecodesNothing(t *testing.T) {
	golden := goldenLZW(t)
	dir := t.TempDir()
	writer := mustCache(t, 1, dir)
	reader := mustCache(t, 1, dir)
	var computes atomic.Int64
	if _, err := writer.GetOrComputeJSON(context.Background(), lzwKey, decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(10, func() { decodeReport(golden) })
	for _, tc := range []struct {
		name string
		read func() bool
	}{
		{"own entry", func() bool { _, ok := writer.diskGet(lzwKey); return ok }},
		{"another cache's entry", func() bool {
			reader.diskForget(lzwKey)
			_, ok := reader.diskGet(lzwKey)
			return ok
		}},
	} {
		hit := testing.AllocsPerRun(50, func() {
			if !tc.read() {
				t.Fatal("entry not served")
			}
		})
		t.Logf("%s: disk hit %.0f allocations; decode %.0f", tc.name, hit, decode)
		if 2*hit > decode {
			t.Errorf("%s: a disk hit allocates %.0f times, a decode %.0f: the hit decodes", tc.name, hit, decode)
		}
	}
}
