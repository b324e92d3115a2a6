package resultcache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMaxEntries is the in-memory LRU capacity when New is given a
// non-positive size. A canonical quick-window report is tens of
// kilobytes, so the default keeps the full workload set plus ablations
// resident in a few megabytes.
const DefaultMaxEntries = 64

// Stats are the cache's observability counters. All fields are safe
// for concurrent use; snapshot them with Cache.StatValues.
type Stats struct {
	Hits          obs.Counter // served from the in-memory tier
	DiskHits      obs.Counter // served from the on-disk tier
	Misses        obs.Counter // led to a simulation
	DedupWaits    obs.Counter // requests that piggybacked on an in-flight computation
	Stores        obs.Counter // reports written into the cache
	Evictions     obs.Counter // LRU evictions from the memory tier
	DiskEvictions obs.Counter // LRU evictions from the disk tier (capacity bound)
	Corrupt       obs.Counter // unreadable disk entries dropped (recompute followed)
	TmpOrphans    obs.Counter // orphaned temp files removed by the startup scrub
	DiskErrors    obs.Counter // disk-tier write failures (entry kept in memory only)
	Uncacheable   obs.Counter // computed reports not stored (truncated/partial)
	InflightRuns  obs.Gauge   // simulations currently running on behalf of the cache
}

// Options configures a Cache beyond New's positional parameters.
type Options struct {
	// MaxEntries is the in-memory LRU capacity in reports (<= 0 =
	// DefaultMaxEntries).
	MaxEntries int
	// Dir enables the disk tier under this directory ("" = memory
	// only; created if missing).
	Dir string
	// MaxDiskBytes bounds the disk tier's total entry bytes (<= 0 =
	// unbounded). Past the bound the least-recently-used entries are
	// deleted from disk; the newest entry is always kept even when it
	// alone exceeds the bound.
	MaxDiskBytes int64
}

// Cache is a content-addressed store of canonical report JSON with an
// in-memory LRU tier and an optional disk tier. The zero value is not
// usable; construct with New or NewWith. All methods are safe for
// concurrent use.
type Cache struct {
	maxEntries   int
	dir          string // "" = memory only
	maxDiskBytes int64

	mu     sync.Mutex
	lru    *list.List               // front = most recently used; values are *cacheEntry
	byKey  map[string]*list.Element //
	flight map[string]*call         // in-flight computations, by key

	disk diskIndex

	Stats Stats
}

// cacheEntry is one memory-tier slot: the key and the canonical JSON.
type cacheEntry struct {
	key  string
	data []byte
}

// call is one in-flight computation; followers block on done and then
// read rep, data and err. The report and the bytes are shared between
// the leader and all followers, so callers must treat both as
// read-only.
type call struct {
	done chan struct{}
	rep  *core.Report
	data []byte
	err  error
}

// New creates a cache holding up to maxEntries reports in memory
// (<= 0 selects DefaultMaxEntries) and, when dir is non-empty,
// persisting entries under dir (created if missing).
func New(maxEntries int, dir string) (*Cache, error) {
	return NewWith(Options{MaxEntries: maxEntries, Dir: dir})
}

// NewWith is New with the full option set. Opening a disk-backed
// cache scrubs the directory first: orphaned temp files left by a
// crash mid-write are deleted (counted in Stats.TmpOrphans), every
// entry is re-verified against the canonical round-trip property
// (invalid ones deleted, counted in Stats.Corrupt), and the byte
// bound is enforced before the first request.
func NewWith(o Options) (*Cache, error) {
	if o.MaxEntries <= 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	c := &Cache{
		maxEntries:   o.MaxEntries,
		dir:          o.Dir,
		maxDiskBytes: o.MaxDiskBytes,
		lru:          list.New(),
		byKey:        make(map[string]*list.Element),
		flight:       make(map[string]*call),
	}
	if err := c.initDisk(); err != nil {
		return nil, err
	}
	return c, nil
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// GetOrCompute returns the report stored under key, computing and
// storing it with compute on a miss. Concurrent calls for the same
// cold key are deduplicated: exactly one runs compute, the rest wait
// and share its result (so returned reports must be treated as
// read-only). Reports served from the cache carry no RunMetrics (the
// canonical form strips them); the call that actually computed keeps
// its metrics intact.
//
// A computed report is stored only when compute succeeds and the
// report is complete: truncated partial reports pass through to the
// caller without poisoning the cache. If the computing call is
// canceled by its own context, waiting callers whose contexts are
// still live retry (leading to a fresh computation) instead of
// inheriting the foreign cancellation.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (*core.Report, error)) (*core.Report, error) {
	rep, data, err := c.lookup(ctx, key, compute)
	if rep == nil && data != nil { // a hit: only the bytes are at hand
		return decodeReport(data)
	}
	return rep, err
}

// GetOrComputeJSON is GetOrCompute for callers that serve the
// canonical JSON (core.CanonicalJSON) rather than read the report: a
// hit returns the stored bytes without decoding them, a stored miss
// returns the bytes it just stored, and only a report the cache did
// not store (truncated or unserializable) is encoded here. Lookups,
// counters and trace attributes are exactly GetOrCompute's.
//
// The returned slice is the cache's own, shared with its memory tier
// and with concurrent callers: callers must not modify or append to
// it.
func (c *Cache) GetOrComputeJSON(ctx context.Context, key string, compute func(context.Context) (*core.Report, error)) ([]byte, error) {
	rep, data, err := c.lookup(ctx, key, compute)
	if data == nil && rep != nil && err == nil { // an uncacheable miss
		return core.CanonicalJSON(rep)
	}
	return data, err
}

// lookup is the singleflight lookup behind GetOrCompute and
// GetOrComputeJSON. It returns the report when compute ran for this
// call (or for the leader it waited on), and the canonical bytes when
// the cache holds them: a hit returns only the bytes, a stored miss
// both, an uncacheable miss only the report.
func (c *Cache) lookup(ctx context.Context, key string, compute func(context.Context) (*core.Report, error)) (*core.Report, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		c.mu.Lock()
		if data, ok := c.getMemLocked(key); ok {
			c.mu.Unlock()
			c.Stats.Hits.Inc()
			obs.SpanFrom(ctx).SetAttr("cache_tier", "memory")
			return nil, data, nil
		}
		if cl, ok := c.flight[key]; ok {
			c.mu.Unlock()
			c.Stats.DedupWaits.Inc()
			obs.SpanFrom(ctx).SetAttr("cache_tier", "dedup")
			select {
			case <-ctx.Done():
				return nil, nil, context.Cause(ctx)
			case <-cl.done:
			}
			if cl.err == nil {
				return cl.rep, cl.data, nil
			}
			if ctx.Err() == nil &&
				(errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
				// The leader was canceled by its own context while ours
				// is still live: restart the lookup.
				continue
			}
			return nil, nil, cl.err
		}
		cl := &call{done: make(chan struct{})}
		c.flight[key] = cl
		c.mu.Unlock()

		cl.rep, cl.data, cl.err = c.lead(ctx, key, compute)
		c.mu.Lock()
		delete(c.flight, key)
		c.mu.Unlock()
		close(cl.done)
		return cl.rep, cl.data, cl.err
	}
}

// lead performs the slow path on behalf of every request for key: a
// disk probe first, then the actual computation. A disk hit returns
// the bytes diskGet just validated; a computed report is encoded once,
// to store, and returned with those bytes.
func (c *Cache) lead(ctx context.Context, key string, compute func(context.Context) (*core.Report, error)) (*core.Report, []byte, error) {
	if data, ok := c.diskGet(key); ok {
		c.Stats.DiskHits.Inc()
		obs.SpanFrom(ctx).SetAttr("cache_tier", "disk")
		c.putMem(key, data)
		return nil, data, nil
	}
	c.Stats.Misses.Inc()
	obs.SpanFrom(ctx).SetAttr("cache_tier", "miss")
	c.Stats.InflightRuns.Add(1)
	rep, err := compute(ctx)
	c.Stats.InflightRuns.Add(-1)
	if err != nil || rep == nil {
		return rep, nil, err
	}
	if rep.Truncated {
		c.Stats.Uncacheable.Inc()
		return rep, nil, nil
	}
	data, merr := core.CanonicalJSON(rep)
	if merr != nil {
		// Unserializable reports are served but not stored.
		c.Stats.Uncacheable.Inc()
		return rep, nil, nil
	}
	write, _ := obs.StartSpanCtx(ctx, "cache.write")
	c.putMem(key, data)
	c.diskPut(key, data)
	write.End()
	c.Stats.Stores.Inc()
	return rep, data, nil
}

// getMemLocked returns the memory-tier entry and marks it recently
// used. Caller holds c.mu.
func (c *Cache) getMemLocked(key string) ([]byte, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// putMem inserts (or refreshes) a memory-tier entry, evicting from the
// LRU tail past capacity.
func (c *Cache) putMem(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
	for c.lru.Len() > c.maxEntries {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
		c.Stats.Evictions.Inc()
	}
}

// decodeReport parses canonical JSON back into a Report.
func decodeReport(data []byte) (*core.Report, error) {
	var r core.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// StatValues snapshots every cache counter (plus the current memory
// entry count), name-sorted, for the server's /metrics document.
func (c *Cache) StatValues() []obs.NamedValue {
	bytes, entries := c.DiskUsage()
	return []obs.NamedValue{
		{Name: "corrupt_disk_entries", Value: int64(c.Stats.Corrupt.Value())},
		{Name: "dedup_waits", Value: int64(c.Stats.DedupWaits.Value())},
		{Name: "disk_bytes", Value: bytes},
		{Name: "disk_entries", Value: int64(entries)},
		{Name: "disk_errors", Value: int64(c.Stats.DiskErrors.Value())},
		{Name: "disk_evictions", Value: int64(c.Stats.DiskEvictions.Value())},
		{Name: "disk_hits", Value: int64(c.Stats.DiskHits.Value())},
		{Name: "entries", Value: int64(c.Len())},
		{Name: "evictions", Value: int64(c.Stats.Evictions.Value())},
		{Name: "hits", Value: int64(c.Stats.Hits.Value())},
		{Name: "inflight_runs", Value: c.Stats.InflightRuns.Value()},
		{Name: "misses", Value: int64(c.Stats.Misses.Value())},
		{Name: "stores", Value: int64(c.Stats.Stores.Value())},
		{Name: "tmp_orphans_removed", Value: int64(c.Stats.TmpOrphans.Value())},
		{Name: "uncacheable", Value: int64(c.Stats.Uncacheable.Value())},
	}
}
