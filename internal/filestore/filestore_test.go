package filestore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testFormat = Format{Magic: [4]byte{'T', 'E', 'S', 'T'}, Version: 1, Ext: ".ent", OldTemp: "old-*.part"}

func openTest(t *testing.T, dir string) (*Store, Scrub, *[]error) {
	t.Helper()
	var dropped []error
	s, scrub, err := Open(dir, testFormat, func(err error) { dropped = append(dropped, err) })
	if err != nil {
		t.Fatal(err)
	}
	return s, scrub, &dropped
}

// TestWriteReadRemove round-trips an entry and pins the file's name,
// its size and what Keys lists.
func TestWriteReadRemove(t *testing.T) {
	dir := t.TempDir()
	s, _, dropped := openTest(t, dir)
	if err := s.Write("beef", []byte("body")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "beef.ent"))
	if err != nil || info.Size() != Size("beef", 4) {
		t.Fatalf("entry file: %v, size %d, want %d", err, info.Size(), Size("beef", 4))
	}
	if body, err := s.Read("beef"); err != nil || string(body) != "body" {
		t.Fatalf("Read = %q, %v", body, err)
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "beef" {
		t.Errorf("Keys = %v", keys)
	}
	if !s.Remove("beef") || s.Remove("beef") {
		t.Error("Remove should report the one entry it removed")
	}
	if _, err := s.Read("beef"); !os.IsNotExist(err) || len(*dropped) != 0 {
		t.Errorf("Read after Remove: %v, %d dropped", err, len(*dropped))
	}
}

// TestFailedWriteLeavesNoTemp makes the rename fail (a directory sits
// at the entry's name) and requires the temp file gone and the error
// returned. Every failure after the temp file exists takes this path.
func TestFailedWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openTest(t, dir)
	if err := os.MkdirAll(filepath.Join(dir, "beef.ent", "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("beef", []byte("body")); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), tmpSuffix) {
			t.Errorf("failed write left %s", ent.Name())
		}
	}
	if err := s.Write("NOTHEX", []byte("body")); err == nil {
		t.Error("Write accepted a key that is not lowercase hex")
	}
}

// TestScrub removes both temp patterns, drops entries that fail the
// check (reporting each), keeps valid ones, and leaves foreign files
// and directories alone.
func TestScrub(t *testing.T) {
	dir := t.TempDir()
	other := testFormat
	other.Magic = [4]byte{'O', 'T', 'H', 'R'}
	files := map[string][]byte{
		"aa.ent":     testFormat.Encode("aa", []byte("kept")),
		"bb.ent":     testFormat.Encode("cc", []byte("filed under another key")),
		"dd.ent":     other.Encode("dd", []byte("another format")),
		"NOTHEX.ent": testFormat.Encode("NOTHEX", []byte("not a key")),
		"x.tmp":      nil,
		"old-1.part": nil,
		"notes.txt":  []byte("left alone"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.ent"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, scrub, dropped := openTest(t, dir)
	if scrub.Temps != 2 || len(*dropped) != 3 {
		t.Errorf("temps %d, dropped %v; want 2 temps and 3 drops", scrub.Temps, *dropped)
	}
	if len(scrub.Entries) != 1 || scrub.Entries[0].Key != "aa" || scrub.Entries[0].Size != Size("aa", 4) {
		t.Errorf("entries = %+v, want aa alone", scrub.Entries)
	}
	var left []string
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		left = append(left, ent.Name())
	}
	if strings.Join(left, " ") != "aa.ent notes.txt sub.ent" {
		t.Errorf("left %v", left)
	}
}
