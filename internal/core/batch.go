package core

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// RunBatch is the executor behind every batch of independent runs known
// up front: repro.RunAll's workloads and a sweep's cells. It calls
// run(i) for every i in [0, n) on at most parallel goroutines
// (parallel <= 0 means GOMAXPROCS) and then done(i, err) on the same
// goroutine, and returns once every item is done. A slot is taken
// before each goroutine starts, so no more than parallel exist at once.
//
// Items fail alone: when run(i) panics, done receives a *PanicError
// named name(i), the panic is counted in health, and the other items
// run on. Results land wherever run and done put them, by index, so
// completion order never shows in the caller's output.
func RunBatch(n, parallel int, health *obs.HealthCounters, name func(int) string,
	run func(int) error, done func(int, error)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, min(parallel, n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			done(i, runIsolated(health, name, i, run))
		}(i)
	}
	wg.Wait()
}

// runIsolated calls run(i), converting a panic into a *PanicError. The
// conversion happens inside the deferred call, so the captured stack
// covers the panic site; done runs only after the panic has unwound.
func runIsolated(health *obs.HealthCounters, name func(int) string, i int, run func(int) error) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			health.PanicsRecovered.Inc()
			err = NewPanicError(name(i), pv)
		}
	}()
	return run(i)
}
