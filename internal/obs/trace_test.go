package obs

import (
	"context"
	"fmt"
	"testing"
)

// TestTraceLifecycle covers mint → span tree → outcome → Doc: the
// exact round trip the report server's /debug/traces handler serves.
func TestTraceLifecycle(t *testing.T) {
	tr := NewTrace("GET /v1/report/lzw")
	if len(tr.ID()) != 16 {
		t.Fatalf("trace ID %q: want 16 hex chars", tr.ID())
	}
	tr.Root().SetAttr("status", 200)
	child := tr.Root().StartChild("sim")
	child.SetAttr("workload", "lzw")
	child.End()
	tr.SetOutcome("ok")
	tr.End()

	if tr.Outcome() != "ok" {
		t.Errorf("outcome = %q", tr.Outcome())
	}
	doc := tr.Doc()
	if doc.ID != tr.ID() || doc.Outcome != "ok" {
		t.Fatalf("doc header wrong: %+v", doc)
	}
	if doc.Spans.Attrs["status"] != 200 {
		t.Errorf("root attrs = %v", doc.Spans.Attrs)
	}
	sim := doc.Spans.Find("sim")
	if sim == nil || sim.Attrs["workload"] != "lzw" {
		t.Fatalf("sim span lost: %+v", doc.Spans)
	}
	if doc.Spans.Find("nope") != nil {
		t.Error("Find invented a span")
	}

	// Two traces never share an ID (the store keys on it).
	if NewTrace("x").ID() == NewTrace("x").ID() {
		t.Error("trace IDs collide")
	}
}

// TestTraceStoreAlwaysKeep pins the two-ring retention policy: kept
// (error/slow/shed) traces survive a flood of healthy traces that
// overflows the normal ring, and both rings evict FIFO at capacity.
func TestTraceStoreAlwaysKeep(t *testing.T) {
	s := NewTraceStore(4)

	kept := NewTrace("error")
	kept.End()
	s.Add(kept, true)

	// Flood with twice the capacity of healthy traces.
	var lastNormal *Trace
	for i := 0; i < 8; i++ {
		tr := NewTrace(fmt.Sprintf("ok-%d", i))
		tr.End()
		s.Add(tr, false)
		lastNormal = tr
	}

	if got, ok := s.Get(kept.ID()); !ok || got != kept {
		t.Fatal("kept trace evicted by healthy traffic")
	}
	if _, ok := s.Get(lastNormal.ID()); !ok {
		t.Fatal("newest normal trace missing")
	}
	if n := s.Len(); n != 5 { // 4 normal + 1 kept
		t.Fatalf("Len = %d, want 5", n)
	}

	// Kept ring evicts FIFO at its own capacity, independent of the
	// normal ring.
	for i := 0; i < 4; i++ {
		tr := NewTrace(fmt.Sprintf("err-%d", i))
		tr.End()
		s.Add(tr, true)
	}
	if _, ok := s.Get(kept.ID()); ok {
		t.Fatal("kept ring did not evict its oldest entry at capacity")
	}

	// List leads with kept traces (newest first), flagged Kept.
	list := s.List()
	if len(list) != 8 {
		t.Fatalf("List len = %d, want 8", len(list))
	}
	if !list[0].Kept || list[0].Name != "err-3" {
		t.Fatalf("List[0] = %+v, want newest kept trace", list[0])
	}
	if list[4].Kept || list[4].Name != "ok-7" {
		t.Fatalf("List[4] = %+v, want newest normal trace", list[4])
	}
	if _, ok := s.Get("ffffffffffffffff"); ok {
		t.Error("Get invented a trace")
	}
}

// TestContextPropagation covers the ctx plumbing that carries a trace
// from the server edge through the runner into core: WithTrace installs
// the root as current span, StartSpanCtx nests, and the nil-safety
// contracts hold for bare contexts.
func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || TraceIDFrom(ctx) != "" || SpanFrom(ctx) != nil {
		t.Fatal("bare context leaked a trace or span")
	}
	// Nil-safe span ops: the CLI path has no trace unless -progress asks.
	var nilSpan *Span
	nilSpan.SetAttr("k", "v")
	if nilSpan.Attr("k") != nil {
		t.Error("nil span stored an attr")
	}

	tr := NewTrace("req")
	ctx = WithTrace(ctx, tr)
	if TraceFrom(ctx) != tr || TraceIDFrom(ctx) != tr.ID() {
		t.Fatal("WithTrace lost the trace")
	}
	if SpanFrom(ctx) != tr.Root() {
		t.Fatal("WithTrace did not install the root as current span")
	}

	sim, simCtx := StartSpanCtx(ctx, "sim")
	if SpanFrom(simCtx) != sim {
		t.Fatal("StartSpanCtx did not install the child")
	}
	inner, _ := StartSpanCtx(simCtx, "run")
	inner.End()
	sim.End()
	tr.End()

	tree := tr.Doc().Spans
	if tree.Find("sim") == nil || tree.Find("run") == nil {
		t.Fatalf("span nesting lost: %+v", tree)
	}
	// "run" must be under "sim", not a sibling.
	if tree.Find("sim").Find("run") == nil {
		t.Fatal("run span not nested under sim")
	}

	// StartSpanCtx without a trace still yields a usable free span.
	free, freeCtx := StartSpanCtx(context.Background(), "solo")
	if free == nil || SpanFrom(freeCtx) != free {
		t.Fatal("free StartSpanCtx broken")
	}
	free.End()
	if free.Duration() < 0 {
		t.Error("negative span duration")
	}
}

// TestHealthCountersScoped pins satellite (a): health counters are
// per-Registry state, Reset clears them, and Values reports nonzero
// counters name-sorted. The package-level obs.Health shim aliases the
// Default registry for the CLI.
func TestHealthCountersScoped(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Health().Cancels.Inc()
	a.Health().Watchdogs.Add(2)
	if b.Health().Cancels.Value() != 0 {
		t.Fatal("health counters leaked across registries")
	}
	vals := a.Health().Values()
	if len(vals) != 2 || vals[0].Name != "runs_canceled" || vals[1].Name != "watchdog_aborts" {
		t.Fatalf("Values = %+v, want name-sorted nonzero counters", vals)
	}
	if vals[1].Value != 2 {
		t.Errorf("watchdog_aborts = %d, want 2", vals[1].Value)
	}

	if Health != Default.Health() {
		t.Fatal("obs.Health is not the Default registry's counters")
	}
}
