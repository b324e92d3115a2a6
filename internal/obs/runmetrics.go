package obs

import (
	"fmt"
	"strings"
	"time"
)

// RunMetrics is the observability document produced for every
// pipeline run: the phase-timing tree, simulator counters, the retire
// rate over the measure window, and the sampled per-observer cost
// attribution. It is serialized inside the Report JSON (-json) and
// rendered by FormatText for `instrep run -metrics text`.
type RunMetrics struct {
	Benchmark string `json:"benchmark"`

	// TraceID is the run's trace identifier (empty when the run was not
	// traced) — the key into GET /debug/traces/{id} on the report
	// server, and printed by the CLI so a run's metrics can be
	// correlated with its trace.
	TraceID string `json:"trace_id,omitempty"`

	// Phases is the hierarchical wall-time breakdown of the run
	// (compile, load, skip, measure, collect, ...).
	Phases PhaseTiming `json:"phases"`

	// Sim aggregates the functional simulator's retirement counters
	// over the whole run (skip + measure).
	Sim SimCounters `json:"simulator"`

	// RetireRateMIPS is million instructions retired per wall-clock
	// second over the measure window.
	RetireRateMIPS float64 `json:"retire_rate_mips"`

	// ExecPath names the simulator loop the run executed on:
	// ExecTranslated (the block translation cache) or ExecInterpreted
	// (the Step interpreter, chosen by Config.DisableTranslation).
	ExecPath string `json:"exec_path,omitempty"`
	// BlocksTranslated is how many superblocks the translation cache
	// built during the run (0 on the interpreted path).
	BlocksTranslated uint64 `json:"blocks_translated"`
	// FallbackSteps is how many instructions the translated loop handed
	// to the Step interpreter because no block existed at the PC.
	FallbackSteps uint64 `json:"fallback_steps"`

	// ObserverHelper names the observer passes a helper goroutine ran
	// for all or part of the run (empty when every pass ran inline on
	// the run goroutine).
	ObserverHelper []string `json:"observer_helper,omitempty"`
	// HelperWaits is how many batch hand-offs found the helper a whole
	// ring behind, and HelperWaitNS how long the run goroutine blocked
	// on them.
	HelperWaits  uint64 `json:"helper_waits"`
	HelperWaitNS int64  `json:"helper_wait_ns"`

	// ObserverSampleEvery is the attribution sampling period: one in
	// every N instructions is individually timed per observer.
	ObserverSampleEvery uint64 `json:"observer_sample_every,omitempty"`

	// Observers attributes analysis cost per attached observer.
	Observers []ObserverCost `json:"observers,omitempty"`

	// Waves, present when the run was re-measured by the min-of-N-waves
	// harness (instrep run -waves N), holds every wave's retire rate.
	// The enclosing metrics document is the fastest wave's, so
	// RetireRateMIPS == Waves.BestMIPS: the minimum-wall-time wave is
	// the closest observation of the machine's true (noise-free) speed,
	// and SpreadPct reports how noisy the measurement was.
	Waves *WaveStats `json:"waves,omitempty"`
}

// RunMetrics.ExecPath values.
const (
	ExecTranslated  = "translated"
	ExecInterpreted = "interpreted"
)

// WaveStats summarizes a min-of-N-waves re-measurement.
type WaveStats struct {
	// N is the number of waves run.
	N int `json:"n"`
	// RatesMIPS holds each wave's retire rate in run order.
	RatesMIPS []float64 `json:"rates_mips"`
	// BestMIPS is the fastest wave (minimum measure wall time).
	BestMIPS float64 `json:"best_mips"`
	// WorstMIPS is the slowest wave.
	WorstMIPS float64 `json:"worst_mips"`
	// SpreadPct is (best-worst)/best — the noise band the waves saw.
	SpreadPct float64 `json:"spread_pct"`
}

// NewWaveStats builds the summary for one workload's wave rates.
func NewWaveStats(rates []float64) *WaveStats {
	if len(rates) == 0 {
		return nil
	}
	w := &WaveStats{N: len(rates), RatesMIPS: rates, BestMIPS: rates[0], WorstMIPS: rates[0]}
	for _, r := range rates[1:] {
		if r > w.BestMIPS {
			w.BestMIPS = r
		}
		if r < w.WorstMIPS {
			w.WorstMIPS = r
		}
	}
	if w.BestMIPS > 0 {
		w.SpreadPct = 100 * (w.BestMIPS - w.WorstMIPS) / w.BestMIPS
	}
	return w
}

// SimCounters are the simulator's retirement statistics.
type SimCounters struct {
	Retired       uint64       `json:"instructions_retired"`
	Loads         uint64       `json:"loads"`
	Stores        uint64       `json:"stores"`
	Branches      uint64       `json:"branches"`
	BranchesTaken uint64       `json:"branches_taken"`
	Syscalls      uint64       `json:"syscalls"`
	ClassMix      []ClassCount `json:"class_mix,omitempty"`
}

// ClassCount is one opcode-class entry of the instruction mix.
type ClassCount struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
}

// ObserverCost is the sampled cost attribution for one observer.
type ObserverCost struct {
	Name string `json:"name"`
	// Samples is how many instructions were individually timed.
	Samples uint64 `json:"samples"`
	// SampledNS is the summed time of the timed calls only.
	SampledNS int64 `json:"sampled_ns"`
	// EstimatedNS extrapolates SampledNS over every instruction
	// (SampledNS * sample period).
	EstimatedNS int64 `json:"estimated_ns"`
	// SharePct is this observer's share of total attributed time.
	SharePct float64 `json:"share_pct"`
}

// FormatText renders the metrics as an indented human-readable tree.
// The output is deterministic for a given RunMetrics value.
func (m *RunMetrics) FormatText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run metrics: %s\n", m.Benchmark)
	if m.TraceID != "" {
		fmt.Fprintf(&b, "trace: %s\n", m.TraceID)
	}
	b.WriteString("phases:\n")
	writePhase(&b, m.Phases, 1)
	b.WriteString("simulator:\n")
	kv := func(k string, v string) { fmt.Fprintf(&b, "  %-22s %s\n", k, v) }
	kv("instructions retired", groupCount(m.Sim.Retired))
	kv("retire rate", fmt.Sprintf("%.2f MIPS", m.RetireRateMIPS))
	if w := m.Waves; w != nil {
		kv("waves", fmt.Sprintf("best-of-%d %.2f MIPS (worst %.2f, spread %.1f%%)",
			w.N, w.BestMIPS, w.WorstMIPS, w.SpreadPct))
	}
	if m.ExecPath != "" {
		kv("exec path", fmt.Sprintf("%s (%s blocks translated, %s fallback steps)",
			m.ExecPath, groupCount(m.BlocksTranslated), groupCount(m.FallbackSteps)))
		if len(m.ObserverHelper) > 0 {
			kv("observer helper", fmt.Sprintf("%s (%s waits, %s)",
				strings.Join(m.ObserverHelper, ", "), groupCount(m.HelperWaits),
				FormatDuration(time.Duration(m.HelperWaitNS))))
		} else {
			kv("observer helper", "none (all passes inline)")
		}
	}
	kv("loads", groupCount(m.Sim.Loads))
	kv("stores", groupCount(m.Sim.Stores))
	kv("branches", fmt.Sprintf("%s (%s taken)",
		groupCount(m.Sim.Branches), groupCount(m.Sim.BranchesTaken)))
	kv("syscalls", groupCount(m.Sim.Syscalls))
	if len(m.Sim.ClassMix) > 0 {
		var parts []string
		for _, c := range m.Sim.ClassMix {
			pctv := 0.0
			if m.Sim.Retired > 0 {
				pctv = 100 * float64(c.Count) / float64(m.Sim.Retired)
			}
			parts = append(parts, fmt.Sprintf("%s %.1f%%", c.Class, pctv))
		}
		kv("class mix", strings.Join(parts, ", "))
	}
	if len(m.Observers) > 0 {
		fmt.Fprintf(&b, "observers (sampled 1/%d, estimated):\n", m.ObserverSampleEvery)
		for _, o := range m.Observers {
			fmt.Fprintf(&b, "  %-12s %5.1f%%  %s\n", o.Name, o.SharePct,
				FormatDuration(time.Duration(o.EstimatedNS)))
		}
	}
	return b.String()
}

func writePhase(b *strings.Builder, p PhaseTiming, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%-*s %s\n", indent, 24-2*depth, p.Name,
		FormatDuration(time.Duration(p.WallNS)))
	for _, c := range p.Children {
		writePhase(b, c, depth+1)
	}
}

// groupCount renders n with thousands separators.
func groupCount(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return strings.Join(append([]string{s}, parts...), ",")
}
