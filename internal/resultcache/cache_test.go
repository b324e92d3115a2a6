package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeReport builds a small but non-trivial complete report.
func fakeReport(name string, n uint64) *core.Report {
	return &core.Report{
		Benchmark:            name,
		DynTotal:             n,
		MeasuredInstructions: n,
		DynRepeatedPct:       42.5,
	}
}

// countingCompute returns a compute func that counts invocations.
func countingCompute(name string, count *atomic.Int64) func(context.Context) (*core.Report, error) {
	return func(context.Context) (*core.Report, error) {
		count.Add(1)
		return fakeReport(name, 1000), nil
	}
}

func mustCache(t *testing.T, entries int, dir string) *Cache {
	t.Helper()
	c, err := New(entries, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// computeFunc is a cache compute step.
type computeFunc = func(context.Context) (*core.Report, error)

// getFunc is one of the cache's two lookups, adapted to return the
// canonical JSON of the report it yields.
type getFunc func(c *Cache, ctx context.Context, key string, compute computeFunc) ([]byte, error)

// lookups are GetOrCompute, whose report is encoded here, and
// GetOrComputeJSON, which returns the bytes itself.
var lookups = []struct {
	name string
	get  getFunc
}{
	{"GetOrCompute", func(c *Cache, ctx context.Context, key string, compute computeFunc) ([]byte, error) {
		rep, err := c.GetOrCompute(ctx, key, compute)
		if err != nil {
			return nil, err
		}
		return core.CanonicalJSON(rep)
	}},
	{"GetOrComputeJSON", (*Cache).GetOrComputeJSON},
}

// forEachLookup runs body once per lookup and checks that the two runs
// leave identical counters on the cache body returns.
func forEachLookup(t *testing.T, body func(t *testing.T, get getFunc) *Cache) {
	var stats [][]obs.NamedValue
	for _, lk := range lookups {
		t.Run(lk.name, func(t *testing.T) {
			stats = append(stats, body(t, lk.get).StatValues())
		})
	}
	if len(stats) == len(lookups) && !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("counters differ between lookups:\n%s: %v\n%s: %v",
			lookups[0].name, stats[0], lookups[1].name, stats[1])
	}
}

// canonical is core.CanonicalJSON of r.
func canonical(t *testing.T, r *core.Report) []byte {
	t.Helper()
	data, err := core.CanonicalJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkLookup performs one lookup under a fresh trace and checks the
// bytes against want and the cache_tier attribute the lookup set on
// the trace's root span against tier.
func checkLookup(t *testing.T, get getFunc, c *Cache, key string, compute computeFunc, want []byte, tier string) {
	t.Helper()
	tr := obs.NewTrace("test")
	got, err := get(c, obs.WithTrace(context.Background(), tr), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s lookup: bytes differ from the computed report's canonical JSON", tier)
	}
	if got := tr.Root().Attr("cache_tier"); got != tier {
		t.Fatalf("cache_tier = %v, want %s", got, tier)
	}
}

func TestMemoryHitMiss(t *testing.T) {
	want := canonical(t, fakeReport("w", 1000))
	forEachLookup(t, func(t *testing.T, get getFunc) *Cache {
		c := mustCache(t, 0, "")
		var computes atomic.Int64
		checkLookup(t, get, c, "k1", countingCompute("w", &computes), want, "miss")
		checkLookup(t, get, c, "k1", countingCompute("w", &computes), want, "memory")
		if computes.Load() != 1 {
			t.Fatalf("want 1 compute, got %d", computes.Load())
		}
		if h, m := c.Stats.Hits.Value(), c.Stats.Misses.Value(); h != 1 || m != 1 {
			t.Fatalf("want hits=1 misses=1, got hits=%d misses=%d", h, m)
		}
		return c
	})
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, 2, "")
	var computes atomic.Int64
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.GetOrCompute(ctx, k, countingCompute(k, &computes)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("want 2 resident entries, got %d", c.Len())
	}
	if ev := c.Stats.Evictions.Value(); ev != 1 {
		t.Fatalf("want 1 eviction, got %d", ev)
	}
	// "a" was evicted (LRU tail); refetching it recomputes and in turn
	// evicts "b", leaving {a, c} resident.
	if _, err := c.GetOrCompute(ctx, "a", countingCompute("a", &computes)); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 4 {
		t.Fatalf("evicted key should recompute: want 4 computes, got %d", computes.Load())
	}
	if _, err := c.GetOrCompute(ctx, "c", countingCompute("c", &computes)); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 4 {
		t.Fatalf("recently used key should hit: want 4 computes, got %d", computes.Load())
	}
}

func TestDiskTierPersistsAcrossInstances(t *testing.T) {
	want := canonical(t, fakeReport("w", 1000))
	forEachLookup(t, func(t *testing.T, get getFunc) *Cache {
		dir := t.TempDir()
		var computes atomic.Int64
		c1 := mustCache(t, 0, dir)
		checkLookup(t, get, c1, "ab", countingCompute("w", &computes), want, "miss")
		if _, err := os.Stat(entryPath(dir, "ab")); err != nil {
			t.Fatalf("disk entry missing after store: %v", err)
		}

		// A fresh cache (cold memory tier) over the same directory
		// serves from disk without recomputing.
		c2 := mustCache(t, 0, dir)
		checkLookup(t, get, c2, "ab", countingCompute("w", &computes), want, "disk")
		if computes.Load() != 1 {
			t.Fatalf("disk hit should not recompute: %d computes", computes.Load())
		}
		if c2.Stats.DiskHits.Value() != 1 {
			t.Fatalf("want 1 disk hit, got %d", c2.Stats.DiskHits.Value())
		}
		// And the entry is now promoted to memory.
		checkLookup(t, get, c2, "ab", countingCompute("w", &computes), want, "memory")
		if c2.Stats.Hits.Value() != 1 {
			t.Fatalf("promoted entry should hit memory, hits=%d", c2.Stats.Hits.Value())
		}
		return c2
	})
}

func TestCorruptDiskEntryFallsBackToRecompute(t *testing.T) {
	ctx := context.Background()
	want := canonical(t, fakeReport("w", 1000))
	for name, garbage := range map[string][]byte{
		"unparseable":   []byte("{not json"),
		"truncated":     []byte(`{"Benchmark": "w",`),
		"non-canonical": []byte("{}"),
		"trailing-junk": []byte("{}\nextra bytes"),
		"empty":         nil,
	} {
		t.Run(name, func(t *testing.T) {
			forEachLookup(t, func(t *testing.T, get getFunc) *Cache {
				dir := t.TempDir()
				c := mustCache(t, 0, dir)
				if err := os.WriteFile(entryPath(dir, "ab"), garbage, 0o644); err != nil {
					t.Fatal(err)
				}
				var computes atomic.Int64
				got, err := get(c, ctx, "ab", countingCompute("w", &computes))
				if err != nil {
					t.Fatal(err)
				}
				if computes.Load() != 1 {
					t.Fatalf("corrupt entry must recompute, got %d computes", computes.Load())
				}
				if c.Stats.Corrupt.Value() != 1 {
					t.Fatalf("want corrupt counter 1, got %d", c.Stats.Corrupt.Value())
				}
				if !bytes.Equal(got, want) {
					t.Fatal("recomputed bytes differ from the computed report's canonical JSON")
				}
				// The slot healed: the rewritten entry holds the report.
				checkEntry(t, dir, "ab", want)
				return c
			})
		})
	}
}

func TestTruncatedReportNotStored(t *testing.T) {
	ctx := context.Background()
	partial := func() *core.Report {
		r := fakeReport("w", 10)
		r.Truncated = true
		r.TruncatedReason = core.ReasonTimeout
		return r
	}
	want := canonical(t, partial())
	forEachLookup(t, func(t *testing.T, get getFunc) *Cache {
		dir := t.TempDir()
		c := mustCache(t, 0, dir)
		var computes atomic.Int64
		truncated := func(context.Context) (*core.Report, error) {
			computes.Add(1)
			return partial(), nil
		}
		for i := 0; i < 2; i++ {
			got, err := get(c, ctx, "ab", truncated)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("truncated report should pass through to the caller")
			}
		}
		if computes.Load() != 2 {
			t.Fatalf("truncated reports must not be cached: want 2 computes, got %d", computes.Load())
		}
		if c.Stats.Uncacheable.Value() != 2 || c.Stats.Stores.Value() != 0 {
			t.Fatalf("want uncacheable=2 stores=0, got uncacheable=%d stores=%d",
				c.Stats.Uncacheable.Value(), c.Stats.Stores.Value())
		}
		if _, err := os.Stat(entryPath(dir, "ab")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("truncated report leaked onto disk")
		}
		return c
	})
}

func TestComputeErrorNotCached(t *testing.T) {
	c := mustCache(t, 0, "")
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	_, err := c.GetOrCompute(ctx, "k", func(context.Context) (*core.Report, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return fakeReport("w", 1), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if _, err := c.GetOrCompute(ctx, "k", func(context.Context) (*core.Report, error) {
		calls++
		return fakeReport("w", 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("error must not be cached: want 2 calls, got %d", calls)
	}
}

// TestSingleflight pins the exactly-one-computation contract: N
// concurrent requests for one cold key run compute once and share the
// result. Run under -race via the Makefile race target.
func TestSingleflight(t *testing.T) {
	want := canonical(t, fakeReport("w", 77))
	forEachLookup(t, func(t *testing.T, get getFunc) *Cache {
		c := mustCache(t, 0, "")
		const n = 16
		var computes atomic.Int64
		started := make(chan struct{})
		release := make(chan struct{})
		compute := func(context.Context) (*core.Report, error) {
			computes.Add(1)
			close(started)
			<-release
			return fakeReport("w", 77), nil
		}

		var wg sync.WaitGroup
		results := make([][]byte, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = get(c, context.Background(), "k", compute)
			}(i)
		}
		<-started
		// Let the followers pile up on the in-flight call, then release.
		for c.Stats.DedupWaits.Value() < n-1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()

		if computes.Load() != 1 {
			t.Fatalf("want exactly 1 compute, got %d", computes.Load())
		}
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("request %d failed: %v", i, errs[i])
			}
			if !bytes.Equal(results[i], want) {
				t.Fatalf("request %d got bytes that differ from the computed report's", i)
			}
		}
		if dw := c.Stats.DedupWaits.Value(); dw != n-1 {
			t.Fatalf("want %d dedup waits, got %d", n-1, dw)
		}
		return c
	})
}

// TestFollowerRetriesWhenLeaderCanceled pins that a waiter with a live
// context does not inherit the leader's cancellation: it restarts the
// lookup and computes fresh.
func TestFollowerRetriesWhenLeaderCanceled(t *testing.T) {
	c := mustCache(t, 0, "")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var computes atomic.Int64
	compute := func(ctx context.Context) (*core.Report, error) {
		if computes.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return fakeReport("w", 5), nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute(leaderCtx, "k", compute)
		leaderErr <- err
	}()
	<-started
	followerDone := make(chan error, 1)
	go func() {
		r, err := c.GetOrCompute(context.Background(), "k", compute)
		if err == nil && r.DynTotal != 5 {
			err = fmt.Errorf("wrong report: %+v", r)
		}
		followerDone <- err
	}()
	// Wait until the follower has joined the in-flight call, then
	// cancel the leader out from under it.
	for c.Stats.DedupWaits.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader should see its own cancellation, got %v", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower should retry and succeed, got %v", err)
	}
	if computes.Load() != 2 {
		t.Fatalf("want 2 computes (canceled + retry), got %d", computes.Load())
	}
}

// TestWaiterHonorsOwnCancel pins that a waiter stops waiting when its
// own context ends, even while the leader is still computing.
func TestWaiterHonorsOwnCancel(t *testing.T) {
	c := mustCache(t, 0, "")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	compute := func(context.Context) (*core.Report, error) {
		close(started)
		<-release
		return fakeReport("w", 1), nil
	}
	go c.GetOrCompute(context.Background(), "k", compute)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute(ctx, "k", compute)
		done <- err
	}()
	for c.Stats.DedupWaits.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
}

func TestStatValuesSorted(t *testing.T) {
	c := mustCache(t, 0, "")
	vals := c.StatValues()
	if len(vals) == 0 {
		t.Fatal("no stat values")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1].Name >= vals[i].Name {
			t.Fatalf("stat values not name-sorted: %q >= %q", vals[i-1].Name, vals[i].Name)
		}
	}
}

func TestDiskPathWritableOnlyWithDir(t *testing.T) {
	c := mustCache(t, 0, "")
	// Memory-only cache: disk helpers are no-ops.
	c.diskPut("abc", []byte("{}"))
	if _, ok := c.diskGet("abc"); ok {
		t.Fatal("memory-only cache should never report disk hits")
	}
	dir := t.TempDir()
	mustCache(t, 0, dir).diskPut("abc", []byte("{}"))
	checkEntry(t, dir, "abc", []byte("{}"))
}
