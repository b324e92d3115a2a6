package obs

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket geometry: powers of
// two from 2^16ns, upper-inclusive bounds, and the +Inf overflow
// bucket. The Prometheus exposition and cross-process mergeability
// both depend on every Histogram agreeing on these boundaries.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := HistogramBounds()
	if len(bounds) != histBuckets {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), histBuckets)
	}
	if bounds[0] != 65536*time.Nanosecond {
		t.Errorf("bounds[0] = %v, want 65.536µs", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != bounds[i-1]*2 {
			t.Errorf("bounds[%d] = %v, want double of %v", i, bounds[i], bounds[i-1])
		}
	}

	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{histMinBound - 1, 0},
		{histMinBound, 0},     // bounds are upper-inclusive
		{histMinBound + 1, 1}, // first duration past a bound goes up
		{2 * histMinBound, 1},
		{2*histMinBound + 1, 2},
		{bounds[len(bounds)-1], histBuckets - 1},
		{bounds[len(bounds)-1] + 1, histBuckets}, // +Inf overflow
		{time.Hour, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistogramSnapshot checks count/sum accounting, per-bucket
// counts, and the deterministic upper-bound percentile estimates.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("zero-value snapshot not empty: %+v", s)
	}
	// Nine fast observations and one slow one: p50 lands in the first
	// bucket, p95 in the slow one.
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Microsecond)
	}
	slow := 10 * time.Millisecond
	h.Observe(slow)

	s := h.Snapshot()
	if s.Count != 10 {
		t.Errorf("Count = %d, want 10", s.Count)
	}
	if want := 9*10*time.Microsecond + slow; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %+v, want 2 non-empty", s.Buckets)
	}
	if s.Buckets[0].LE != histMinBound || s.Buckets[0].Count != 9 {
		t.Errorf("fast bucket = %+v, want le=%v count=9", s.Buckets[0], histMinBound)
	}
	if s.Buckets[1].Count != 1 || s.Buckets[1].LE < slow {
		t.Errorf("slow bucket = %+v, want count=1 with le >= %v", s.Buckets[1], slow)
	}
	if s.P50 != histMinBound {
		t.Errorf("P50 = %v, want %v (upper bound of the first bucket)", s.P50, histMinBound)
	}
	if s.P95 != s.Buckets[1].LE {
		t.Errorf("P95 = %v, want %v (upper bound of the slow bucket)", s.P95, s.Buckets[1].LE)
	}
}

// TestHistogramOverflowPercentile pins the +Inf bucket's "at least the
// top finite bound" percentile answer.
func TestHistogramOverflowPercentile(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour) // past every finite bound
	s := h.Snapshot()
	top := histMinBound << (histBuckets - 1)
	if s.P50 != top {
		t.Errorf("P50 = %v, want top finite bound %v", s.P50, top)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LE != 0 {
		t.Errorf("overflow bucket = %+v, want single le=0 entry", s.Buckets)
	}
}

// TestRegistryHistogram checks first-use creation and the name-sorted
// snapshot.
func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("b_lat").Observe(time.Millisecond)
	r.Histogram("a_lat").Observe(time.Millisecond)
	if r.Histogram("a_lat") != r.Histogram("a_lat") {
		t.Fatal("Histogram not idempotent")
	}
	vals := r.HistogramValues()
	if len(vals) != 2 || vals[0].Name != "a_lat" || vals[1].Name != "b_lat" {
		t.Fatalf("HistogramValues = %+v, want name-sorted a_lat, b_lat", vals)
	}
	if vals[0].Count != 1 {
		t.Errorf("a_lat count = %d, want 1", vals[0].Count)
	}
}

// TestWritePrometheusGolden pins the exposition byte-for-byte for a
// fixed registry: naming (instrep_ prefix), name-sorted ordering,
// cumulative histogram buckets in seconds, and the extra cache/health
// sections. Scrape configs and recording rules depend on these names
// not drifting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("server_requests_report").Add(3)
	r.Counter("server_errors").Inc()
	r.GaugeFunc("server_queue_depth", func() int64 { return 2 })
	h := r.Histogram("server_latency_report")
	h.Observe(50 * time.Microsecond)  // first bucket (le 0.065536)
	h.Observe(100 * time.Microsecond) // second bucket (le 0.131072)
	h.Observe(time.Hour)              // +Inf overflow

	var b strings.Builder
	r.WritePrometheus(&b,
		ExtraSection{Prefix: "cache_", Gauge: true, Values: []NamedValue{{Name: "hits", Value: 7}}},
		ExtraSection{Prefix: "health_", Values: []NamedValue{{Name: "runs_timed_out", Value: 1}}},
	)
	got := b.String()

	want := `# TYPE instrep_server_errors counter
instrep_server_errors 1
# TYPE instrep_server_requests_report counter
instrep_server_requests_report 3
# TYPE instrep_cache_hits gauge
instrep_cache_hits 7
# TYPE instrep_health_runs_timed_out counter
instrep_health_runs_timed_out 1
# TYPE instrep_server_queue_depth gauge
instrep_server_queue_depth 2
# TYPE instrep_server_latency_report histogram
instrep_server_latency_report_bucket{le="0.000065536"} 1
instrep_server_latency_report_bucket{le="0.000131072"} 2
instrep_server_latency_report_bucket{le="0.000262144"} 2
instrep_server_latency_report_bucket{le="0.000524288"} 2
instrep_server_latency_report_bucket{le="0.001048576"} 2
instrep_server_latency_report_bucket{le="0.002097152"} 2
instrep_server_latency_report_bucket{le="0.004194304"} 2
instrep_server_latency_report_bucket{le="0.008388608"} 2
instrep_server_latency_report_bucket{le="0.016777216"} 2
instrep_server_latency_report_bucket{le="0.033554432"} 2
instrep_server_latency_report_bucket{le="0.067108864"} 2
instrep_server_latency_report_bucket{le="0.134217728"} 2
instrep_server_latency_report_bucket{le="0.268435456"} 2
instrep_server_latency_report_bucket{le="0.536870912"} 2
instrep_server_latency_report_bucket{le="1.073741824"} 2
instrep_server_latency_report_bucket{le="2.147483648"} 2
instrep_server_latency_report_bucket{le="4.294967296"} 2
instrep_server_latency_report_bucket{le="8.589934592"} 2
instrep_server_latency_report_bucket{le="17.179869184"} 2
instrep_server_latency_report_bucket{le="34.359738368"} 2
instrep_server_latency_report_bucket{le="68.719476736"} 2
instrep_server_latency_report_bucket{le="137.438953472"} 2
instrep_server_latency_report_bucket{le="+Inf"} 3
instrep_server_latency_report_sum 3600.00015
instrep_server_latency_report_count 3
`
	if got != want {
		t.Errorf("Prometheus exposition drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
