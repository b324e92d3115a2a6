package repro_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper. Each benchmark regenerates its experiment across all
// eight workload analogs (with only the analyses that experiment
// needs enabled) and reports the rendered rows via -v logging on the
// first iteration.
//
//	go test -bench=BenchmarkTable1 -benchmem
//	go test -bench=. -benchmem          # everything
//
// Window sizes are reduced relative to cmd/instrep's defaults so the
// full bench suite completes in minutes; the shapes are stable from
// a few hundred thousand instructions (see EXPERIMENTS.md).

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/repetition"
	"repro/internal/reuse"
	"repro/internal/workloads"
)

// benchConfig is the per-workload window used by the experiment
// benchmarks.
func benchConfig() repro.Config {
	return repro.Config{
		SkipInstructions:    200_000,
		MeasureInstructions: 1_000_000,
	}
}

// runExperiment simulates all workloads with cfg and renders the named
// experiment.
func runExperiment(b *testing.B, experiment string, cfg repro.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reports, err := repro.RunAll(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		s, err := repro.Format(experiment, reports)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

// repetitionOnly disables everything but the census.
func repetitionOnly() repro.Config {
	cfg := benchConfig()
	cfg.DisableVPred = true
	cfg.DisableVProf = true
	cfg.DisableTaint = true
	cfg.DisableLocal = true
	cfg.DisableFunc = true
	cfg.DisableReuse = true
	return cfg
}

func funcOnly() repro.Config {
	cfg := benchConfig()
	cfg.DisableVPred = true
	cfg.DisableVProf = true
	cfg.DisableTaint = true
	cfg.DisableLocal = true
	cfg.DisableReuse = true
	return cfg
}

func localOnly() repro.Config {
	cfg := benchConfig()
	cfg.DisableVPred = true
	cfg.DisableVProf = true
	cfg.DisableTaint = true
	cfg.DisableFunc = true
	cfg.DisableReuse = true
	return cfg
}

func taintOnly() repro.Config {
	cfg := benchConfig()
	cfg.DisableVPred = true
	cfg.DisableVProf = true
	cfg.DisableLocal = true
	cfg.DisableFunc = true
	cfg.DisableReuse = true
	return cfg
}

func reuseOnly() repro.Config {
	cfg := benchConfig()
	cfg.DisableVPred = true
	cfg.DisableVProf = true
	cfg.DisableTaint = true
	cfg.DisableLocal = true
	cfg.DisableFunc = true
	return cfg
}

// Table 1: dynamic/static repetition census.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", repetitionOnly()) }

// Figure 1: static-instruction coverage of repetition.
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1", repetitionOnly()) }

// Figure 3: repetition by unique-instance bucket.
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3", repetitionOnly()) }

// Table 2: unique repeatable instances and average repeats.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", repetitionOnly()) }

// Figure 4: instance coverage of repetition.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4", repetitionOnly()) }

// Table 3: global (taint) source analysis.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", taintOnly()) }

// Table 4: function-argument repetition.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", funcOnly()) }

// Table 5: overall local-category shares.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", localOnly()) }

// Table 6: local-category repetition shares.
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", localOnly()) }

// Table 7: local-category propensities.
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7", localOnly()) }

// Table 8: memoization candidates.
func BenchmarkTable8(b *testing.B) { runExperiment(b, "table8", funcOnly()) }

// Figure 5: top argument-set specialization coverage.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5", funcOnly()) }

// Table 9: top prologue/epilogue contributors.
func BenchmarkTable9(b *testing.B) { runExperiment(b, "table9", localOnly()) }

// Figure 6: top load-value specialization coverage.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6", localOnly()) }

// Table 10: reuse-buffer capture.
func BenchmarkTable10(b *testing.B) { runExperiment(b, "table10", reuseOnly()) }

// Ablations: design choices DESIGN.md calls out.

// BenchmarkAblationInstanceBuffer varies the per-instruction instance
// buffer depth, quantifying why the paper tracks many instances
// (Figure 3's long tail): shallow buffers miss large fractions of the
// repetition.
func BenchmarkAblationInstanceBuffer(b *testing.B) {
	for _, depth := range []int{1, 4, 64, 2000} {
		b.Run(itoa(depth), func(b *testing.B) {
			cfg := repetitionOnly()
			cfg.MaxInstances = depth
			for i := 0; i < b.N; i++ {
				r, err := repro.RunWorkload(context.Background(), "jpeg", cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("depth %d: repetition %.1f%%", depth, r.DynRepeatedPct)
				}
			}
		})
	}
}

// BenchmarkAblationReuseGeometry sweeps the reuse buffer size (the
// Table 10 hardware design space).
func BenchmarkAblationReuseGeometry(b *testing.B) {
	for _, entries := range []int{1024, 8192, 65536} {
		b.Run(itoa(entries), func(b *testing.B) {
			cfg := reuseOnly()
			cfg.ReuseEntries = entries
			for i := 0; i < b.N; i++ {
				r, err := repro.RunWorkload(context.Background(), "goban", cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%d entries: captures %.1f%% of instructions", entries, r.ReusePctAll)
				}
			}
		})
	}
}

// BenchmarkWaves is the min-of-N-waves retire-rate harness in
// testing.B form (the CLI equivalent is `instrep run -waves N`): each
// workload's measure window runs `waves` times, and the benchmark
// reports the best wave (minimum wall time — the least machine-noise-
// perturbed observation) plus the spread the waves saw. The
// interpreted sub-benchmarks re-measure the same windows with the
// translation cache disabled, so one run yields the before/after pair.
func BenchmarkWaves(b *testing.B) {
	const waves = 3
	window := uint64(1_000_000)
	for _, mode := range []struct {
		name        string
		noTranslate bool
	}{{"translated", false}, {"interpreted", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, name := range repro.Workloads() {
				b.Run(name, func(b *testing.B) {
					cfg := repro.Config{
						SkipInstructions:    200_000,
						MeasureInstructions: window,
						DisableTranslation:  mode.noTranslate,
					}
					var best, worst float64
					for i := 0; i < b.N; i++ {
						for w := 0; w < waves; w++ {
							r, err := repro.RunWorkload(context.Background(), name, cfg)
							if err != nil {
								b.Fatal(err)
							}
							mips := r.Metrics.RetireRateMIPS
							if best == 0 || mips > best {
								best = mips
							}
							if worst == 0 || mips < worst {
								worst = mips
							}
						}
					}
					b.ReportMetric(best, "best_mips")
					if best > 0 {
						b.ReportMetric(100*(best-worst)/best, "spread_%")
					}
				})
			}
		})
	}
}

// BenchmarkSimulatorRaw measures bare functional-simulation speed
// (no analyses): instructions per second of the substrate.
func BenchmarkSimulatorRaw(b *testing.B) {
	cfg := repro.Config{
		MeasureInstructions: 1_000_000,
		DisableTaint:        true,
		DisableLocal:        true,
		DisableFunc:         true,
		DisableReuse:        true,
		MaxInstances:        1, // minimal census
	}
	b.SetBytes(0)
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunWorkload(context.Background(), "lzw", cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(1_000_000*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineFull measures simulation speed with every analysis
// attached (the cost of the full instrumentation).
func BenchmarkPipelineFull(b *testing.B) {
	cfg := repro.Config{MeasureInstructions: 1_000_000}
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunWorkload(context.Background(), "lzw", cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(1_000_000*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkNewPipeline measures what a sweep cell pays before its
// first instruction: a fresh machine and the full pipeline for lzw, at
// the paper's reuse geometry and at the sweep's largest (65536 entries,
// 4-way). Per-PC tables hold only the sets the program can reach, so
// the two should cost about the same.
func BenchmarkNewPipeline(b *testing.B) {
	w, _ := workloads.ByName("lzw")
	im, err := w.Image()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(1)
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"default", core.Config{}}, {"65536x4", core.Config{ReuseEntries: 65536, ReuseAssoc: 4}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := cpu.New(im, input)
				m.Attach(core.NewPipeline(im, c.cfg))
				builtMachine = m
			}
		})
	}
}

// builtMachine keeps BenchmarkNewPipeline's builds from being optimized
// away.
var builtMachine *cpu.Machine

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationInlining compiles workloads with and without the
// Section 6 inlining optimization and measures the prologue/epilogue
// share it removes (the Table 9 trade-off).
func BenchmarkAblationInlining(b *testing.B) {
	for _, inline := range []bool{false, true} {
		name := "base"
		if inline {
			name = "inlined"
		}
		b.Run(name, func(b *testing.B) {
			cfg := localOnly()
			for i := 0; i < b.N; i++ {
				src, _ := repro.WorkloadSource("odb")
				input, _ := repro.WorkloadInput("odb", 1)
				im, err := repro.CompileWith(src, repro.CompileOptions{Inline: inline})
				if err != nil {
					b.Fatal(err)
				}
				r, err := repro.RunImage(context.Background(), im, input, "odb", cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("odb %s: prologue+epilogue %.1f%%, repetition %.1f%%",
						name, r.Local.OverallPct[0]+r.Local.OverallPct[1], r.DynRepeatedPct)
				}
			}
		})
	}
}

// Hot-path micro-benchmarks: the two measurement-loop data structures
// in isolation (per-event cost of the census's dense-table +
// open-addressing instance set and the reuse buffer's flat sets with
// the bounded invalidation index).

// synthEvents builds a deterministic event stream over `pcs` static
// instructions with `vals` distinct operand values, mixing ALU ops,
// loads, and stores the way the workloads do.
func synthEvents(n, pcs, vals int) []cpu.Event {
	evs := make([]cpu.Event, n)
	state := uint32(12345)
	for i := range evs {
		state = state*1664525 + 1013904223 // deterministic LCG
		pc := uint32(0x400000 + 4*int(state>>8)%(4*pcs))
		v := state % uint32(vals)
		ev := cpu.Event{
			PC:   pc,
			Inst: isa.Inst{Op: isa.OpADDU, Rd: 2, Rs: 4, Rt: 5},
			Src1: 4, Src1Val: v,
			Src2: 5, Src2Val: v + 1,
			Dst: 2, DstVal: 2*v + 1,
			Aux: -1,
		}
		switch state % 8 {
		case 0: // load
			ev.Inst.Op = isa.OpLW
			ev.IsLoad = true
			ev.Addr = 0x10000000 + 4*(v%64)
			ev.Src2 = -1
		case 1: // store
			ev.Inst.Op = isa.OpSW
			ev.IsStore = true
			ev.Addr = 0x10000000 + 4*(v%64)
			ev.Dst = -1
		}
		evs[i] = ev
	}
	return evs
}

// BenchmarkCensusObserve measures the repetition tracker's per-event
// cost on a pre-sized dense table.
func BenchmarkCensusObserve(b *testing.B) {
	evs := synthEvents(1<<16, 1024, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := repetition.NewTracker(1024)
		for j := range evs {
			tr.Observe(&evs[j])
		}
	}
	b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReuseObserve measures the reuse buffer's per-event cost,
// store invalidations included.
func BenchmarkReuseObserve(b *testing.B) {
	evs := synthEvents(1<<16, 1024, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := reuse.New(0, 0, 1024)
		for j := range evs {
			buf.Observe(&evs[j], false)
		}
	}
	b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/s")
}

// Extension experiments.

// BenchmarkExtTypes regenerates the per-instruction-class census.
func BenchmarkExtTypes(b *testing.B) { runExperiment(b, "ext-types", repetitionOnly()) }

// BenchmarkExtVPred regenerates the value-prediction comparison.
func BenchmarkExtVPred(b *testing.B) {
	cfg := benchConfig()
	cfg.DisableTaint = true
	cfg.DisableLocal = true
	cfg.DisableFunc = true
	cfg.DisableReuse = true
	cfg.DisableVProf = true
	runExperiment(b, "ext-vpred", cfg)
}

// BenchmarkExtProfile regenerates the per-function drill-down.
func BenchmarkExtProfile(b *testing.B) { runExperiment(b, "ext-profile", funcOnly()) }

// BenchmarkExtVProfile regenerates the Calder value-profile comparison.
func BenchmarkExtVProfile(b *testing.B) {
	cfg := benchConfig()
	cfg.DisableTaint = true
	cfg.DisableLocal = true
	cfg.DisableFunc = true
	cfg.DisableReuse = true
	cfg.DisableVPred = true
	runExperiment(b, "ext-vprofile", cfg)
}
