package sweep

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/reuse"
	"repro/internal/workloads"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"skip": 100, "measure": 2000}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every axis defaulted: one config point over all workloads.
	if want := len(workloads.Names()); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	c := cells[0]
	if c.Entries != reuse.DefaultEntries || c.Assoc != reuse.DefaultAssoc || c.Policy != reuse.LRU {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.Config.SkipInstructions != 100 || c.Config.MeasureInstructions != 2000 {
		t.Errorf("window not threaded into config: %+v", c.Config)
	}
}

func TestExpandOrderAndConfigs(t *testing.T) {
	s := &Spec{
		Entries:   []int{64, 256},
		Assoc:     []int{1, 4},
		Policies:  []string{"lru", "random"},
		Workloads: []string{"lzw", "scrip"},
		Skip:      10,
		Measure:   100,
	}
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*2 {
		t.Fatalf("got %d cells, want 16", len(cells))
	}
	// Workload is innermost, policy next: the first four cells share
	// entries=64 assoc=1.
	wantIDs := []string{
		"s10-m100-e64-a1-lru/lzw",
		"s10-m100-e64-a1-lru/scrip",
		"s10-m100-e64-a1-random/lzw",
		"s10-m100-e64-a1-random/scrip",
	}
	for i, want := range wantIDs {
		if got := cells[i].ID(); got != want {
			t.Errorf("cells[%d].ID() = %q, want %q", i, got, want)
		}
		if cells[i].Index != i {
			t.Errorf("cells[%d].Index = %d", i, cells[i].Index)
		}
	}
	// Each cell's Config carries exactly its axis values.
	for _, c := range cells {
		if c.Config.ReuseEntries != c.Entries || c.Config.ReuseAssoc != c.Assoc ||
			c.Config.ReusePolicy != c.Policy {
			t.Errorf("cell %s: config mismatch %+v", c.ID(), c.Config)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s, err := ParseSpec([]byte(`{"entries":[64,128],"assoc":[2],"policies":["FIFO","lru"],"skip":5,"measure":50,"workloads":["lzw"]}`))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("re-parse of normalized spec failed: %v\n%s", err, data)
	}
	second, err := Expand(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("round trip changed cell count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].ID() != second[i].ID() {
			t.Errorf("cell %d: %q vs %q", i, first[i].ID(), second[i].ID())
		}
	}
	// Policy names canonicalized on the way through.
	if s.Policies[0] != "fifo" {
		t.Errorf("policy not canonicalized: %v", s.Policies)
	}
}

func TestSpecRejections(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"entrees": [1]}`, "unknown field"},
		{"empty entries", `{"entries": []}`, "empty entries axis"},
		{"empty assoc", `{"assoc": []}`, "empty assoc axis"},
		{"empty policies", `{"policies": []}`, "empty policies axis"},
		{"empty windows", `{"windows": []}`, "empty windows axis"},
		{"empty workloads", `{"workloads": []}`, "empty workloads axis"},
		{"dup entries", `{"entries": [64, 64]}`, "duplicate entries"},
		{"dup assoc", `{"assoc": [2, 2]}`, "duplicate assoc"},
		{"dup policy", `{"policies": ["lru", "LRU"]}`, "duplicate policy"},
		{"dup window", `{"windows": [{"skip":1,"measure":2},{"skip":1,"measure":2}]}`, "duplicate window"},
		{"dup workload", `{"workloads": ["lzw", "lzw"]}`, "duplicate workload"},
		{"bad policy", `{"policies": ["mru"]}`, "unknown replacement policy"},
		{"bad workload", `{"workloads": ["nope"]}`, "unknown workload"},
		{"entries zero", `{"entries": [0]}`, "out of range"},
		{"entries negative", `{"entries": [-4]}`, "out of range"},
		{"entries huge", `{"entries": [2097152]}`, "out of range"},
		{"assoc huge", `{"assoc": [1024]}`, "out of range"},
		{"windows and skip", `{"windows":[{"skip":1,"measure":2}], "skip": 3}`, "both windows and skip"},
		{"negative instances", `{"instances": -1}`, "negative instances"},
		{"negative variant", `{"input_variant": -2}`, "negative input_variant"},
		{"trailing data", `{} {}`, "trailing data"},
		{"trailing brace", `{"entries": [64]}}`, "trailing data"},
		{"trailing bracket", `{"entries": [64]}]`, "trailing data"},
		{"not an object", `[1,2]`, "parsing spec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.in))
			if err == nil {
				t.Fatalf("ParseSpec(%s) accepted", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSpec(%s) error %q, want substring %q", c.in, err, c.wantErr)
			}
		})
	}
}

func TestSpecGridCap(t *testing.T) {
	// 20 entries × 16 assoc × 3 policies × 8 workloads = 7680 > MaxCells.
	entries := make([]int, 20)
	assoc := make([]int, 16)
	for i := range entries {
		entries[i] = 1 + i
	}
	for i := range assoc {
		assoc[i] = 1 + i
	}
	s := &Spec{Entries: entries, Assoc: assoc, Policies: []string{"lru", "fifo", "random"}}
	if _, err := Expand(s); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("oversized grid accepted: %v", err)
	}
}
