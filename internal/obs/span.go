package obs

import (
	"sync"
	"time"
)

// Span measures the wall time of one phase of work. Spans nest:
// StartChild opens a sub-phase whose duration is reported under its
// parent, giving the hierarchical "where did the time go" breakdown
// that RunMetrics serializes. Spans are safe for concurrent use,
// though a single phase is normally driven by one goroutine.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	offset   time.Duration // start relative to the parent span (0 for roots)
	dur      time.Duration
	ended    bool
	children []*Span
	attrs    map[string]any
}

// StartSpan begins a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Name returns the span's label.
func (s *Span) Name() string { return s.name }

// StartChild begins a sub-span recorded under s.
func (s *Span) StartChild(name string) *Span {
	c := StartSpan(name)
	s.mu.Lock()
	c.offset = c.start.Sub(s.start)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches (or replaces) a key/value attribute on the span.
// Attributes carry request-scoped facts — workload, cache tier, queue
// wait, retire counts — into the serialized span tree. Calling SetAttr
// on a nil span is a no-op, so instrumentation sites need no span-
// present check.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Attr returns the named attribute's value, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// End stops the span and returns its duration. Ending twice is safe;
// the first End wins.
func (s *Span) End() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// Duration returns the recorded duration, or the running elapsed time
// if the span has not ended.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Tree snapshots the span hierarchy as a serializable PhaseTiming.
func (s *Span) Tree() PhaseTiming {
	s.mu.Lock()
	pt := PhaseTiming{Name: s.name, StartNS: s.offset.Nanoseconds()}
	if s.ended {
		pt.WallNS = s.dur.Nanoseconds()
	} else {
		pt.WallNS = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		pt.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			pt.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	pt.Wall = FormatDuration(time.Duration(pt.WallNS))
	for _, c := range children {
		pt.Children = append(pt.Children, c.Tree())
	}
	return pt
}

// PhaseTiming is the serialized form of a span subtree. StartNS is the
// span's start relative to its parent, so a child's [StartNS,
// StartNS+WallNS] interval nests inside its parent's duration and
// sibling durations can be summed against the parent's to find
// unattributed time.
type PhaseTiming struct {
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns,omitempty"` // offset from parent start
	WallNS   int64          `json:"wall_ns"`
	Wall     string         `json:"wall"` // human-readable WallNS
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []PhaseTiming  `json:"children,omitempty"`
}

// Find returns the first subtree named name in pre-order, or nil —
// the lookup trace tests and tooling use to assert a span's presence.
func (p *PhaseTiming) Find(name string) *PhaseTiming {
	if p.Name == name {
		return p
	}
	for i := range p.Children {
		if f := p.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// FormatDuration renders a duration rounded to a readable precision
// (three or so significant digits) for metrics output.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Nanosecond).String()
	default:
		return d.String()
	}
}
