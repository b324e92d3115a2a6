package resultcache

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

func TestFingerprintShapeAndStability(t *testing.T) {
	cfg := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	k1 := Fingerprint("goban", "int main() { return 0; }", cfg)
	k2 := Fingerprint("goban", "int main() { return 0; }", cfg)
	if k1 != k2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("fingerprint should be hex sha256 (64 chars), got %d: %s", len(k1), k1)
	}
	for _, c := range k1 {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("fingerprint has non-hex char %q: %s", c, k1)
		}
	}
}

// sensitivityConfigs is a base config plus one variant per
// measurement-affecting Config field, each changing only that field.
func sensitivityConfigs() map[string]core.Config {
	base := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	with := func(mutate func(*core.Config)) core.Config {
		c := base
		mutate(&c)
		return c
	}
	return map[string]core.Config{
		"base":          base,
		"skip":          with(func(c *core.Config) { c.SkipInstructions++ }),
		"measure":       with(func(c *core.Config) { c.MeasureInstructions++ }),
		"instances":     with(func(c *core.Config) { c.MaxInstances = 2001 }),
		"reuse-entries": with(func(c *core.Config) { c.ReuseEntries = 4096 }),
		"reuse-assoc":   with(func(c *core.Config) { c.ReuseAssoc = 8 }),
		"vpred-entries": with(func(c *core.Config) { c.VPredEntries = 16384 }),
		"input-variant": with(func(c *core.Config) { c.InputVariant = 2 }),
		"disable-taint": with(func(c *core.Config) { c.DisableTaint = true }),
		"disable-local": with(func(c *core.Config) { c.DisableLocal = true }),
		"disable-func":  with(func(c *core.Config) { c.DisableFunc = true }),
		"disable-reuse": with(func(c *core.Config) { c.DisableReuse = true }),
		"disable-vpred": with(func(c *core.Config) { c.DisableVPred = true }),
		"disable-vprof": with(func(c *core.Config) { c.DisableVProf = true }),
	}
}

// TestFingerprintSensitivity pins that every input that can change the
// measured report changes the key.
func TestFingerprintSensitivity(t *testing.T) {
	configs := sensitivityConfigs()
	keys := map[string]string{
		"workload": Fingerprint("lzw", "src", configs["base"]),
		"source":   Fingerprint("goban", "src2", configs["base"]),
	}
	for name, cfg := range configs {
		keys[name] = Fingerprint("goban", "src", cfg)
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestFingerprintSourceMemo pins that memoizing the source digest
// moves no key: for every bundled workload and every sensitivity
// config, Fingerprint (memoized, called twice so the second call
// reads the memo) equals the key over a freshly hashed source. The
// memo stays bounded under arbitrary sources and is safe for
// concurrent use (run under -race by the Makefile race target).
func TestFingerprintSourceMemo(t *testing.T) {
	memoLen := func() int {
		sourceDigests.Lock()
		defer sourceDigests.Unlock()
		return len(sourceDigests.list)
	}
	// Start from an empty memo so every bundled source gets a slot.
	sourceDigests.Lock()
	sourceDigests.list = nil
	sourceDigests.Unlock()
	for _, w := range workloads.All() {
		for name, cfg := range sensitivityConfigs() {
			want := fingerprint(w.Name, sha256.Sum256([]byte(w.Source)), cfg)
			for i := 0; i < 2; i++ {
				if got := Fingerprint(w.Name, w.Source, cfg); got != want {
					t.Fatalf("%s/%s call %d: memoized key %s, want %s", w.Name, name, i, got, want)
				}
			}
		}
	}
	if n := memoLen(); n != len(workloads.All()) {
		t.Fatalf("source memo holds %d entries, want one per bundled workload (%d)", n, len(workloads.All()))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*maxSourceDigests; i++ {
				src := fmt.Sprintf("int main() { return %d; }", i)
				want := fingerprint("w", sha256.Sum256([]byte(src)), core.Config{})
				if got := Fingerprint("w", src, core.Config{}); got != want {
					t.Errorf("goroutine %d source %d: key %s, want %s", g, i, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(); n > maxSourceDigests {
		t.Fatalf("source memo holds %d entries, bound is %d", n, maxSourceDigests)
	}
}

// TestFingerprintNormalization pins that zero-value defaults and the
// explicit sizes they select share a key, and that execution-shaping
// fields are excluded.
func TestFingerprintNormalization(t *testing.T) {
	zero := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	explicit := zero
	explicit.MaxInstances = 2000
	explicit.ReuseEntries = 8192
	explicit.ReuseAssoc = 4
	explicit.VPredEntries = 8192
	explicit.InputVariant = 1
	if Fingerprint("w", "s", zero) != Fingerprint("w", "s", explicit) {
		t.Error("zero-value defaults should fingerprint like their explicit sizes")
	}

	exec := zero
	exec.Parallel = 7
	exec.Timeout = time.Minute
	exec.WatchdogInterval = time.Second
	exec.Progress = func(core.Progress) {}
	if Fingerprint("w", "s", zero) != Fingerprint("w", "s", exec) {
		t.Error("execution-only fields must not change the fingerprint")
	}
}

func TestCacheable(t *testing.T) {
	if !Cacheable(core.Config{Timeout: time.Second}) {
		t.Error("plain configs should be cacheable (timeouts only truncate, and truncated reports are not stored)")
	}
	if Cacheable(core.Config{Faults: faultinject.NewPlan()}) {
		t.Error("fault-injected configs must bypass the cache")
	}
}
