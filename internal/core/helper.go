package core

// The observer helper: when a CPU is idle, core.Run hands every flushed
// event batch to a helper goroutine that runs the helper-side observer
// passes while the run goroutine goes on simulating and runs the census
// and the other passes. Every observer keeps its own state and still
// sees the whole ordered stream, so no statistic can change. See
// DESIGN.md §15.

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// helperRing is how many batches the run goroutine may hand the helper
// before it blocks. Waking a parked goroutine on the other CPU costs
// 20–70 µs on the two-vCPU reference host, about as long as the helper's
// passes over one 256-event batch, so the two sides must not wait on each
// other per batch: a fork-join per flush measured 5.18 MIPS against 5.75
// inline. A ring lets either side run ahead while the other is descheduled;
// census measured 5.6–6.1 MIPS at depth 3, 8.7–9.5 at 8 and 9.3–10.2 at 32
// (5.2 inline). 16 keeps most of that gain for 16 batches of about 41 KB
// each per armed run.
const helperRing = 16

// cpusClaimed counts the CPUs that simulations and servers in this process
// keep busy. It is process-wide on purpose: whether a CPU is idle is a
// fact about the process, not about any one run. Every core.Run claims
// one while it runs, an armed run a second for its helper, and a serving
// report server one for request handling.
var cpusClaimed atomic.Int64

// ClaimCPU records that the caller keeps one CPU busy until it calls
// release, so that core.Run arms an observer helper only on a CPU that
// nothing else has claimed. A run whose helper is armed gives the
// helper's CPU back at its next batch hand-off once the claims pass
// GOMAXPROCS. Calling release more than once releases one claim.
func ClaimCPU() (release func()) {
	cpusClaimed.Add(1)
	return releaser()
}

// ClaimedCPUs reports how many CPUs are claimed now.
func ClaimedCPUs() int { return int(cpusClaimed.Load()) }

func releaser() func() {
	var once sync.Once
	return func() { once.Do(func() { cpusClaimed.Add(-1) }) }
}

// claimSpareCPU claims a CPU only if the claims stay within limit.
func claimSpareCPU(limit int64) (release func(), ok bool) {
	for {
		n := cpusClaimed.Load()
		if n >= limit {
			return nil, false
		}
		if cpusClaimed.CompareAndSwap(n, n+1) {
			return releaser(), true
		}
	}
}

// helperPanic is a panic a helper pass raised, with the helper's stack at
// the panic site. The run goroutine re-raises it; NewPanicError unwraps it.
type helperPanic struct {
	value any
	stack []byte
}

// helper is one armed run's helper goroutine. The run goroutine hands it
// full batches over work in stream order and takes them back, observed
// and emptied, from free; busy counts the batches handed over and not yet
// observed.
type helper struct {
	stages []*stage // the helper-side passes, in pipeline order
	// work and free each hold every ring batch, so neither send blocks.
	work   chan *batch
	free   chan *batch
	busy   sync.WaitGroup
	exited chan struct{}
	failed atomic.Pointer[helperPanic]
	// release gives the helper's CPU back; limit is GOMAXPROCS when the
	// helper was armed (read once: runtime.GOMAXPROCS takes a scheduler
	// lock).
	release func()
	limit   int64
	raised  bool // failed has been re-raised on the run goroutine
}

// armHelper starts a helper goroutine for the helper-side stages when
// there are any and a CPU is spare. disarm stops it.
func (p *Pipeline) armHelper() {
	var stages []*stage
	for i := range p.stages {
		if st := &p.stages[i]; st.helper {
			stages = append(stages, st)
		}
	}
	if len(stages) == 0 {
		return
	}
	limit := int64(runtime.GOMAXPROCS(0))
	release, ok := claimSpareCPU(limit)
	if !ok {
		return
	}
	for _, st := range stages {
		p.helperNames = append(p.helperNames, st.name)
	}
	p.h = &helper{
		stages:  stages,
		work:    make(chan *batch, helperRing),
		free:    make(chan *batch, helperRing),
		exited:  make(chan struct{}),
		release: release,
		limit:   limit,
	}
	for range helperRing {
		p.h.free <- newBatch()
	}
	go p.h.loop()
}

// disarm stops the helper, if one is armed, once it has observed every
// batch handed to it, waits for its goroutine to exit, and gives its CPU
// back; the helper-side passes run inline from then on. It never raises
// a helper panic, so it is safe on every return path of core.Run; a run
// that goes on afterwards drains first.
func (p *Pipeline) disarm() {
	h := p.h
	if h == nil {
		return
	}
	p.h = nil
	close(h.work)
	<-h.exited
	h.release()
}

// loop is the helper goroutine. After a pass panics it keeps returning
// batches without observing them, so the run goroutine never blocks on
// it.
func (h *helper) loop() {
	defer close(h.exited)
	for b := range h.work {
		if h.failed.Load() == nil {
			h.observe(b)
		}
		b.reset()
		h.free <- b
		h.busy.Done()
	}
}

// observe runs the helper-side passes over one batch, keeping a panic
// and the helper's stack for the run goroutine to raise.
func (h *helper) observe(b *batch) {
	defer func() {
		if pv := recover(); pv != nil {
			h.failed.Store(&helperPanic{value: pv, stack: debug.Stack()})
		}
	}()
	var now time.Time
	if b.timed {
		now = time.Now()
	}
	for _, st := range h.stages {
		st.run(b)
		if b.timed {
			t := time.Now()
			st.ns += t.Sub(now)
			now = t
		}
	}
}

// handoff swaps the run goroutine's full batch b for an empty one and
// queues the full one for the helper. It blocks only when the helper is
// a whole ring behind, and counts those waits.
func (p *Pipeline) handoff(b *batch) {
	h := p.h
	var s *batch
	select {
	case s = <-h.free:
	default:
		t := time.Now()
		s = <-h.free
		p.helperWaits++
		p.helperWait += time.Since(t)
	}
	*s, *b = *b, *s
	h.busy.Add(1)
	h.work <- s
}

// overcommitted reports whether the claims have passed GOMAXPROCS since
// the helper took its CPU.
func (h *helper) overcommitted() bool {
	return cpusClaimed.Load() > h.limit
}

// drain waits until the helper has observed every batch handed to it,
// then raises a helper panic if one is pending. b is the run goroutine's
// batch.
func (h *helper) drain(b *batch) {
	h.busy.Wait()
	h.raise(b)
}

// raise re-panics, once, on the run goroutine with a panic a helper pass
// recovered, so core.Run's recover turns it into a *PanicError. It
// empties b first: collecting the partial report must not observe events
// the helper never will. Raising only once keeps the drain that
// collection does from dropping that partial report.
func (h *helper) raise(b *batch) {
	if hp := h.failed.Load(); hp != nil && !h.raised {
		h.raised = true
		b.reset()
		panic(hp)
	}
}
