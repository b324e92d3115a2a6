package resultcache

// Tests for the disk tier's recorded digests: a read of an entry this
// process wrote or checked compares SHA-256 digests instead of decoding,
// so it catches an edit the canonical round trip accepts, and costs no
// decode.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

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

// TestEditedDiskEntryNotServed changes one digit of a stored entry on
// disk. The edited bytes still pass the canonical round trip, but not
// the digest recorded when the entry was stored: the entry is not
// served, corrupt_disk_entries counts it, and the recomputed bytes, on
// disk too, equal the golden report.
func TestEditedDiskEntryNotServed(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	c := mustCache(t, 1, t.TempDir())
	var computes atomic.Int64
	if _, err := c.GetOrComputeJSON(ctx, "k", decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(golden, []byte(`"DynTotal": 500000`), []byte(`"DynTotal": 600000`), 1)
	if bytes.Equal(edited, golden) || !validCanonical(edited) {
		t.Fatal("the edit should change the bytes and still pass the round trip")
	}
	if err := os.WriteFile(c.diskPath("k"), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	storeKey(t, c, "other", "w") // pushes k out of the one-entry memory tier

	got, err := c.GetOrComputeJSON(ctx, "k", decodingCompute(golden, &computes))
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
	if data, err := os.ReadFile(c.diskPath("k")); err != nil || !bytes.Equal(data, golden) {
		t.Errorf("the slot did not heal to the golden bytes (err %v)", err)
	}
}

// TestSharedDirEntryServedAfterOneRoundTrip opens two caches on one
// directory. An entry the first writes after the second opened is
// served by the second from disk, checked by the round trip once, after
// which the second holds its digest and catches a later edit.
func TestSharedDirEntryServedAfterOneRoundTrip(t *testing.T) {
	ctx := context.Background()
	golden := goldenLZW(t)
	dir := t.TempDir()
	reader := mustCache(t, 1, dir)
	writer := mustCache(t, 1, dir)
	var computes atomic.Int64
	if _, err := writer.GetOrComputeJSON(ctx, "k", decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.diskSum("k"); ok {
		t.Fatal("the reader indexed an entry it has not read")
	}
	got, err := reader.GetOrComputeJSON(ctx, "k", decodingCompute(golden, &computes))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) || computes.Load() != 1 || reader.Stats.DiskHits.Value() != 1 {
		t.Fatalf("reader: %d computes, %d disk hits, golden bytes %v", computes.Load(),
			reader.Stats.DiskHits.Value(), bytes.Equal(got, golden))
	}
	if sum, ok := reader.diskSum("k"); !ok || sum != sha256.Sum256(golden) {
		t.Fatal("the reader did not record the entry's digest after its round trip")
	}

	edited := bytes.Replace(golden, []byte(`"DynTotal": 500000`), []byte(`"DynTotal": 600000`), 1)
	if err := os.WriteFile(reader.diskPath("k"), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.diskGet("k"); ok || reader.Stats.Corrupt.Value() != 1 {
		t.Errorf("the reader served an entry edited after it checked it (corrupt %d)", reader.Stats.Corrupt.Value())
	}
}

// TestIndexedDiskHitDecodesNothing: reading an entry with a recorded
// digest allocates what reading the file takes (7 allocations for the
// golden lzw report), while the round trip of the same bytes allocates
// 49. A hit that decoded would allocate at least as much as the round
// trip.
func TestIndexedDiskHitDecodesNothing(t *testing.T) {
	golden := goldenLZW(t)
	c := mustCache(t, 1, t.TempDir())
	var computes atomic.Int64
	if _, err := c.GetOrComputeJSON(context.Background(), "k", decodingCompute(golden, &computes)); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(50, func() {
		if _, ok := c.diskGet("k"); !ok {
			t.Fatal("indexed entry not served")
		}
	})
	decode := testing.AllocsPerRun(10, func() { validCanonical(golden) })
	t.Logf("indexed disk hit: %.0f allocations; round trip: %.0f", hit, decode)
	if 2*hit > decode {
		t.Errorf("an indexed disk hit allocates %.0f times, a round trip %.0f: the hit decodes", hit, decode)
	}
}
