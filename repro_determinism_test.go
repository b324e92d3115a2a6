package repro_test

// Determinism property tests: the content-addressed result cache and
// the golden corpus are only sound because the same (workload, config)
// pair always produces a byte-identical canonical report. These tests
// pin that property directly — across repeat runs, across -parallel
// settings, and across cache-enabled vs cache-disabled paths.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/overload"
	"repro/internal/resultcache"
)

// detConfig is a reduced window so the property tests stay cheap: the
// properties hold at any window, so the smallest interesting one does.
func detConfig() repro.Config {
	return repro.Config{
		SkipInstructions:    20_000,
		MeasureInstructions: 100_000,
	}
}

func canonical(t *testing.T, r *repro.Report) []byte {
	t.Helper()
	b, err := repro.CanonicalReportJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRepeatRunsAreByteIdentical runs the same workload twice and
// compares the canonical reports byte for byte.
func TestRepeatRunsAreByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"goban", "lzw"} {
		r1, err := repro.RunWorkload(ctx, name, detConfig())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := repro.RunWorkload(ctx, name, detConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical(t, r1), canonical(t, r2)) {
			t.Errorf("%s: two identical runs produced different reports", name)
		}
	}
}

// TestParallelismDoesNotChangeReports runs the whole suite serially
// and with maximum worker-pool concurrency: scheduling must not leak
// into measured content.
func TestParallelismDoesNotChangeReports(t *testing.T) {
	ctx := context.Background()
	serial := detConfig()
	serial.Parallel = 1
	wide := detConfig()
	wide.Parallel = len(repro.Workloads())

	rs1, err := repro.RunAll(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := repro.RunAll(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs1) != len(rs2) {
		t.Fatalf("report counts differ: %d vs %d", len(rs1), len(rs2))
	}
	for i := range rs1 {
		if rs1[i].Benchmark != rs2[i].Benchmark {
			t.Fatalf("report order differs at %d: %s vs %s", i, rs1[i].Benchmark, rs2[i].Benchmark)
		}
		if !bytes.Equal(canonical(t, rs1[i]), canonical(t, rs2[i])) {
			t.Errorf("%s: -parallel changed the measured report", rs1[i].Benchmark)
		}
	}
}

// TestCacheTransparency pins the acceptance property: the cache-backed
// path returns byte-identical canonical reports to a direct
// RunWorkload — on the miss that populates it and on the hit that
// reads it back — and the hit really came from the cache.
func TestCacheTransparency(t *testing.T) {
	ctx := context.Background()
	cache, err := resultcache.New(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := &repro.Runner{Cache: cache}
	const name = "goban"

	direct, err := repro.RunWorkload(ctx, name, detConfig())
	if err != nil {
		t.Fatal(err)
	}
	miss, err := runner.RunWorkload(ctx, name, detConfig())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := runner.RunWorkload(ctx, name, detConfig())
	if err != nil {
		t.Fatal(err)
	}

	want := canonical(t, direct)
	if !bytes.Equal(want, canonical(t, miss)) {
		t.Error("cache-miss path diverged from direct RunWorkload")
	}
	if !bytes.Equal(want, canonical(t, hit)) {
		t.Error("cache-hit path diverged from direct RunWorkload")
	}
	if h, m := cache.Stats.Hits.Value(), cache.Stats.Misses.Value(); h != 1 || m != 1 {
		t.Errorf("want hits=1 misses=1, got hits=%d misses=%d", h, m)
	}
	if hit.Metrics != nil {
		t.Error("cached reports are canonical and must carry no RunMetrics")
	}

	// ReportJSON serves the same bytes: a hit returns the stored bytes,
	// and a runner with no cache encodes its own run.
	hitJSON, err := runner.ReportJSON(ctx, name, detConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, hitJSON) {
		t.Error("ReportJSON cache hit diverged from direct RunWorkload")
	}
	if h := cache.Stats.Hits.Value(); h != 2 {
		t.Errorf("ReportJSON should hit the cache: hits=%d, want 2", h)
	}
	bareJSON, err := (&repro.Runner{}).ReportJSON(ctx, name, detConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, bareJSON) {
		t.Error("uncached ReportJSON diverged from direct RunWorkload")
	}

	// A different measurement config must not alias the cached entry.
	other := detConfig()
	other.MeasureInstructions += 4096
	changed, err := runner.RunWorkload(ctx, name, other)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, canonical(t, changed)) {
		t.Error("changed config should not serve the old cached report")
	}
	if m := cache.Stats.Misses.Value(); m != 2 {
		t.Errorf("changed config should miss, misses=%d", m)
	}
}

// TestAdmissionPreservesDeterminism pins that the overload machinery
// is invisible to report content: a Runner with a one-slot admission
// gate and circuit breakers, serving concurrent demand for the same
// workload, produces canonical bytes identical to a bare uncached run.
func TestAdmissionPreservesDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := detConfig()

	bare, err := repro.RunWorkload(ctx, "goban", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, bare)

	cache, err := resultcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	rn := &repro.Runner{
		Cache:    cache,
		Gate:     overload.NewGate(1, 2, time.Second),
		Breakers: overload.NewBreakerSet(3, time.Minute, nil),
	}
	const callers = 8
	got := make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := rn.RunWorkload(ctx, "goban", cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = repro.CanonicalReportJSON(rep)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("caller %d: admitted report differs from bare run", i)
		}
	}
}
