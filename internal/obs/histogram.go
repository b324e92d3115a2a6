package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-log-bucket duration histogram: observations are
// counted into a predetermined set of exponentially spaced buckets, so
// snapshots are deterministic functions of the observations, cheap to
// take, and mergeable across processes — the property Prometheus
// histogram series (_bucket/_sum/_count) are built on.
//
// The bucket boundaries are powers of two from histMinBound (64µs,
// wide enough to resolve a cache hit) through histMinBound<<histBuckets-1
// (~137s, past any request timeout), plus an implicit +Inf overflow
// bucket. Every Histogram shares the same boundaries, so series from
// different endpoints, runs, or nodes can be added bucket-by-bucket.
//
// The zero value is ready to use and safe for concurrent use; Observe
// is two atomic adds and a bit-length computation (no locks, no
// allocation), cheap enough for per-request paths.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	buckets [histBuckets + 1]atomic.Uint64 // last = +Inf overflow
}

// Fixed bucket geometry: histBuckets finite bounds at
// histMinBound << i for i in [0, histBuckets).
const (
	histMinBound = 65536 * time.Nanosecond // 2^16 ns ≈ 65.5µs
	histBuckets  = 22                      // top finite bound 2^37 ns ≈ 137s
)

// HistogramBounds returns the finite bucket boundaries (upper-inclusive
// "le" bounds) shared by every Histogram, smallest first. The returned
// slice is fresh on every call.
func HistogramBounds() []time.Duration {
	out := make([]time.Duration, histBuckets)
	for i := range out {
		out[i] = histMinBound << i
	}
	return out
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= histMinBound<<i, or histBuckets (the +Inf bucket) when d
// exceeds every finite bound. Bounds are powers of two, so the index
// is a bit-length computation instead of a search.
func bucketIndex(d time.Duration) int {
	if d <= histMinBound {
		return 0
	}
	idx := bits.Len64(uint64(d-1)) - 16
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.buckets[bucketIndex(d)].Add(1)
}

// HistogramBucket is one non-empty bucket of a snapshot: the count of
// observations at or below LE (LE 0 = the +Inf overflow bucket).
// Counts are per-bucket, not cumulative; WritePrometheus accumulates
// them into Prometheus's cumulative form.
type HistogramBucket struct {
	LE    time.Duration `json:"le_ns"` // 0 = +Inf
	Count uint64        `json:"count"`
}

// HistogramStats is a point-in-time summary of a Histogram. P50/P95
// are upper-bound estimates (the bound of the bucket containing the
// percentile), deterministic for a given set of observations.
type HistogramStats struct {
	Count   uint64            `json:"count"`
	Sum     time.Duration     `json:"sum_ns"`
	P50     time.Duration     `json:"p50_ns"`
	P95     time.Duration     `json:"p95_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the observations so far. A concurrent Observe
// may land between the count and bucket reads; the skew is at most the
// handful of in-flight observations.
func (h *Histogram) Snapshot() HistogramStats {
	s := HistogramStats{Count: h.count.Load(), Sum: time.Duration(h.sumNS.Load())}
	var counts [histBuckets + 1]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] == 0 {
			continue
		}
		b := HistogramBucket{Count: counts[i]}
		if i < histBuckets {
			b.LE = histMinBound << i
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.P50 = bucketPercentile(counts[:], total, 50)
	s.P95 = bucketPercentile(counts[:], total, 95)
	return s
}

// bucketPercentile returns the upper bound of the bucket containing
// the p-th percentile (nearest-rank over bucket counts). The +Inf
// bucket reports the top finite bound — an "at least" answer.
func bucketPercentile(counts []uint64, total uint64, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(p/100*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			if i >= histBuckets {
				return histMinBound << (histBuckets - 1)
			}
			return histMinBound << i
		}
	}
	return histMinBound << (histBuckets - 1)
}
