package main

import (
	"math"
	"sync"
	"testing"
)

// The ledger's two consistency checks. Run them from this directory:
//
//	go test -count=1 .

var (
	simOnce sync.Once
	simRes  *simLedger
	simErr  error
)

func simLedgerForTest(t *testing.T) *simLedger {
	t.Helper()
	if testing.Short() {
		t.Skip("times the simulator")
	}
	simOnce.Do(func() { simRes, simErr = measureSim() })
	if simErr != nil {
		t.Fatal(simErr)
	}
	return simRes
}

// TestObserverDeltasAddUp: the census-only pipeline plus each
// observer's isolated cost must add up to the full pipeline, within
// observerSumTolerancePct.
func TestObserverDeltasAddUp(t *testing.T) {
	l := simLedgerForTest(t)
	got := l.observerSumPct()
	t.Logf("core.observer_sum_pct = %.1f%% (census-only %.1f ns/inst, full %.1f ns/inst, deltas %v)",
		got, l.censusNS, l.fullNS, l.deltaNS)
	if math.Abs(got-100) > observerSumTolerancePct {
		t.Errorf("census-only plus observer deltas is %.1f%% of the full pipeline, want 100 ± %d", got, observerSumTolerancePct)
	}
}

// TestSampledSharesMatchDeltas checks the pipeline's sampled cost
// attribution (RunMetrics share_pct) against an independent
// measurement: each observer's share of the measured deltas.
func TestSampledSharesMatchDeltas(t *testing.T) {
	l := simLedgerForTest(t)
	got := l.shareErrPct()
	for _, o := range observerNames {
		t.Logf("%-10s sampled %5.1f%%  measured %5.1f ns/inst", o, l.sharePct[o], l.deltaNS[o])
	}
	if got > shareErrBoundPct {
		t.Errorf("core.share_err_pct = %.1f points, want under %d", got, shareErrBoundPct)
	}
}
