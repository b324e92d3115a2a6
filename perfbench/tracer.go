package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval of the benchmark's own trace: a call the
// benchmark made into a layer, with the span trees the program reported
// for that call attached beneath it. Every method is a no-op on a nil
// span, so the untraced run pays nothing for the calls.
type span struct {
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns"` // offset from the parent's start; roots: from the run's start
	WallNS   int64   `json:"wall_ns"`
	Children []*span `json:"children,omitempty"`

	start time.Time
}

// tracer keeps every root span of a traced run in memory until the run
// writes them out. Safe for concurrent use; each span is driven by one
// goroutine.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	roots []*span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a root span (nil on an untraced run).
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &span{Name: name, StartNS: now.Sub(t.base).Nanoseconds(), start: now}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &span{Name: name, StartNS: now.Sub(s.start).Nanoseconds(), start: now}
	s.Children = append(s.Children, c)
	return c
}

func (s *span) end() {
	if s != nil {
		s.WallNS = time.Since(s.start).Nanoseconds()
	}
}

// attach adds a span tree the program reported (a RunMetrics phase tree
// or a /debug/traces document) as a child that started at `at`.
func (s *span) attach(pt obs.PhaseTiming, at time.Time) {
	if s == nil {
		return
	}
	c := fromPhase(pt)
	c.StartNS = at.Sub(s.start).Nanoseconds()
	s.Children = append(s.Children, c)
}

func fromPhase(pt obs.PhaseTiming) *span {
	s := &span{Name: pt.Name, StartNS: pt.StartNS, WallNS: pt.WallNS}
	for _, c := range pt.Children {
		s.Children = append(s.Children, fromPhase(c))
	}
	return s
}

// selfNS is the span's duration minus the part of it its children
// cover.
func (s *span) selfNS() int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range s.Children {
		lo, hi := max(c.StartNS, 0), min(c.StartNS+c.WallNS, s.WallNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
		}
		end = max(end, v.hi)
	}
	return max(s.WallNS-covered, 0)
}

// traceLayers names the layers self time is reported for, in the order
// the span trees nest: the benchmark's own calls, the HTTP edge, the
// admission queue, the runner's sim span, RunWorkload's run span and its
// phases, the result cache and the checkpoint store.
var traceLayers = []string{
	"bench", "http", "queue", "sim", "run",
	"compile", "load", "skip", "measure", "collect",
	"cache", "checkpoint",
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case strings.Contains(name, " /"): // a server trace root, "GET /v1/..."
		return "http"
	case strings.HasPrefix(name, "cache."):
		return "cache"
	case strings.HasPrefix(name, "checkpoint."):
		return "checkpoint"
	}
	return name
}

// layerMetrics reports each layer's self time as a share of all self
// time in the trace, the traced run's primary operation rate (whose gap
// to the untraced ops_per_s is the tracing overhead), and on serve the
// share of the server's request time spent answering job status polls
// (0 where there is no server). Shares are of
// the summed self time rather than of wall time because layers overlap
// on serve: the server simulates a job while the writer polls it.
func (t *tracer) layerMetrics(s *sample) map[string]metric {
	self := make(map[string]int64)
	var total int64
	var walk func(*span)
	walk = func(sp *span) {
		ns := sp.selfNS()
		self[layerOf(sp.Name)] += ns
		total += ns
		for _, c := range sp.Children {
			walk(c)
		}
	}
	t.mu.Lock()
	for _, root := range t.roots {
		walk(root)
	}
	t.mu.Unlock()
	m := make(map[string]metric)
	for _, l := range traceLayers {
		m["trace."+l+"_self_pct"] = metric{100 * float64(self[l]) / float64(max(total, 1)), "%"}
	}
	m["trace.ops_per_s"] = metric{float64(len(s.ops)) / s.opsWall.Seconds(), "1/s"}
	m["trace.poll_server_pct"] = metric{100 * s.pollTime.Seconds() / max(s.serverTime.Seconds(), 1e-9), "%"}
	return m
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.roots)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
