package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
)

// TestSlowPassCharged adds a stage that sleeps on one batch, not the
// first, and drives the pipeline with the stage inline and on an armed
// helper: either way the stage is charged the whole sleep, because
// every pass of every flush is timed and the helper's times reach the
// stages at the drain.
func TestSlowPassCharged(t *testing.T) {
	const slowFlush, nap = 3, 2 * time.Millisecond
	im := replayTestImage(t)
	for _, side := range []struct {
		name   string
		helper bool
	}{{"inline", onRun}, {"helper", onHelper}} {
		t.Run(side.name, func(t *testing.T) {
			p := NewPipeline(im, Config{})
			flushes := 0
			p.stages = append(p.stages, stage{name: "slow", helper: side.helper, run: func(*batch) {
				if flushes == slowFlush {
					time.Sleep(nap)
				}
				flushes++
			}})
			if side.helper {
				if n := ClaimedCPUs() + 2; runtime.GOMAXPROCS(0) < n {
					old := runtime.GOMAXPROCS(n)
					t.Cleanup(func() { runtime.GOMAXPROCS(old) })
				}
				p.armHelper()
				if p.h == nil {
					t.Fatal("no helper armed with a spare CPU")
				}
				defer p.disarm()
			}
			m := cpu.New(im, nil)
			m.Attach(p)
			p.SetCounting(true)
			if _, err := m.Run(8 * batchSize); err != nil {
				t.Fatal(err)
			}
			p.drain()
			if flushes <= slowFlush {
				t.Fatalf("%d flushes, want more than %d", flushes, slowFlush)
			}
			var charged time.Duration
			for _, c := range p.ObserverCosts() {
				if c.Name == "slow" {
					charged = time.Duration(c.EstimatedNS)
				}
			}
			if charged < nap {
				t.Errorf("a pass that slept %v on flush %d of %d was charged %v", nap, slowFlush, flushes, charged)
			}
		})
	}
}
