package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reuse"
)

func TestMeasurementKeyNormalizesDefaults(t *testing.T) {
	zero := Config{SkipInstructions: 1, MeasureInstructions: 2}
	explicit := zero
	explicit.MaxInstances = 2000
	explicit.ReuseEntries = 8192
	explicit.ReuseAssoc = 4
	explicit.VPredEntries = 8192
	explicit.InputVariant = 1
	if zero.MeasurementKey() != explicit.MeasurementKey() {
		t.Errorf("defaults should normalize:\n zero     %s\n explicit %s",
			zero.MeasurementKey(), explicit.MeasurementKey())
	}
}

func TestMeasurementKeyExcludesExecutionFields(t *testing.T) {
	base := Config{SkipInstructions: 1, MeasureInstructions: 2}
	exec := base
	exec.Parallel = 3
	exec.Timeout = time.Minute
	exec.WatchdogInterval = time.Second
	exec.Progress = func(Progress) {}
	if base.MeasurementKey() != exec.MeasurementKey() {
		t.Error("execution-shaping fields must not enter the measurement key")
	}
}

func TestMeasurementKeyCoversMeasurementFields(t *testing.T) {
	base := Config{SkipInstructions: 1, MeasureInstructions: 2}
	muts := []func(*Config){
		func(c *Config) { c.SkipInstructions++ },
		func(c *Config) { c.MeasureInstructions++ },
		func(c *Config) { c.MaxInstances = 7 },
		func(c *Config) { c.ReuseEntries = 16 },
		func(c *Config) { c.ReuseAssoc = 2 },
		func(c *Config) { c.ReusePolicy = reuse.FIFO },
		func(c *Config) { c.ReusePolicy = reuse.Random },
		func(c *Config) { c.VPredEntries = 64 },
		func(c *Config) { c.InputVariant = 2 },
		func(c *Config) { c.DisableTaint = true },
		func(c *Config) { c.DisableLocal = true },
		func(c *Config) { c.DisableFunc = true },
		func(c *Config) { c.DisableReuse = true },
		func(c *Config) { c.DisableVPred = true },
		func(c *Config) { c.DisableVProf = true },
	}
	seen := map[string]int{base.MeasurementKey(): -1}
	for i, mutate := range muts {
		c := base
		mutate(&c)
		k := c.MeasurementKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
}

func TestCanonicalJSONStripsMetricsAndRoundTrips(t *testing.T) {
	r := &Report{
		Benchmark:            "w",
		DynTotal:             123,
		MeasuredInstructions: 456,
		DynRepeatedPct:       87.25,
		Fig1Targets:          CoverageTargets,
		Fig1:                 []float64{1, 2, 3},
		Metrics:              &obs.RunMetrics{Benchmark: "w", RetireRateMIPS: 5.5},
	}
	data, err := CanonicalJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Error("canonical JSON should end with a newline")
	}
	if strings.Contains(string(data), "RunMetrics") {
		t.Error("canonical JSON must strip the wall-clock metrics document")
	}
	if r.Metrics == nil {
		t.Error("CanonicalJSON must not mutate the caller's report")
	}

	// Round trip: decode + re-encode reproduces the exact bytes (the
	// disk tier's corruption check relies on this).
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := CanonicalJSON(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("canonical JSON does not survive a decode/re-encode round trip")
	}
}
