package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/filestore"
)

// FuzzSnapshotDecode fuzzes filestore's envelope decoder, which reads
// checkpoint files and result-cache entries alike, under both
// formats' magics. It must never panic, and anything it accepts must
// be canonically encoded: re-encoding the decoded (key, body)
// reproduces the input byte for byte, so no malformed or tampered
// input can validate (the checksum makes forging one computationally
// infeasible for the fuzzer). No input is accepted under both formats,
// so a cache entry never reads as a snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	// cacheEntry is the result cache's entry envelope (its
	// entryFormat): the same decoder under another magic and version.
	cacheEntry := filestore.Format{Magic: [4]byte{'I', 'R', 'C', 'E'}, Version: 1, Ext: ".json"}
	f.Add([]byte{})
	for _, valid := range [][]byte{
		Encode("abc123", []byte("snapshot body")),
		cacheEntry.Encode("abc123", []byte(`{"Benchmark": "lzw"}`)),
	} {
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		corrupt := bytes.Clone(valid)
		corrupt[9] ^= 0x10
		f.Add(corrupt)
	}
	f.Add([]byte("ICKP"))
	f.Add([]byte("not a snapshot at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := 0
		for _, fm := range []filestore.Format{format, cacheEntry} {
			key, body, err := fm.Decode(data)
			if err != nil {
				continue
			}
			accepted++
			if !bytes.Equal(fm.Encode(key, body), data) {
				t.Fatalf("%s accepted non-canonical input: key=%q len(body)=%d", fm.Magic, key, len(body))
			}
		}
		if accepted > 1 {
			t.Fatal("an input decoded under both formats")
		}
	})
}
