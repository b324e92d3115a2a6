package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/jobs"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/reportserver"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// The layer ledger times isolated targets, each one call (or a short
// loop of calls) into one layer, in the manner of a repetition tester:
// every target runs in waves and keeps its fastest wave, the closest
// observation of the layer's cost without the machine's noise.

const (
	// ledgerProgram is the program the simulator targets run.
	ledgerProgram = "odb"
	// ledgerWindow is how many instructions each simulator target runs,
	// counting from the program's first instruction.
	ledgerWindow = 1_000_000
	// ledgerWaves is how many waves each simulator target runs.
	ledgerWaves = 7

	// observerSumTolerancePct bounds |core.observer_sum_pct - 100|: the
	// census-only pipeline plus each observer's isolated cost should
	// add up to the full pipeline.
	observerSumTolerancePct = 15
	// shareErrBoundPct bounds core.share_err_pct: the sampled
	// attribution (RunMetrics share_pct) against the measured deltas.
	shareErrBoundPct = 15
)

// observerNames are the pipeline's observers in attribution order: the
// repetition census, then the six analyses it feeds.
var observerNames = []string{"repetition", "taint", "local", "funcanal", "reuse", "vpred", "vprofile"}

// censusOnly disables every analysis but the repetition census.
func censusOnly() core.Config {
	return core.Config{DisableTaint: true, DisableLocal: true, DisableFunc: true,
		DisableReuse: true, DisableVPred: true, DisableVProf: true}
}

// withObserver is censusOnly plus one analysis.
func withObserver(name string) core.Config {
	cfg := censusOnly()
	switch name {
	case "taint":
		cfg.DisableTaint = false
	case "local":
		cfg.DisableLocal = false
	case "funcanal":
		cfg.DisableFunc = false
	case "reuse":
		cfg.DisableReuse = false
	case "vpred":
		cfg.DisableVPred = false
	case "vprofile":
		cfg.DisableVProf = false
	}
	return cfg
}

// simLedger is the simulator half of the ledger: per-instruction host
// cost of the bare core, the census, each observer and the full
// pipeline, plus the pipeline's own sampled attribution.
type simLedger struct {
	bareNS, interpNS, censusNS, fullNS, reuse64kNS float64            // ns per instruction
	fullDeltaNS                                    float64            // full pipeline over census-only, paired
	deltaNS                                        map[string]float64 // per observer, over its baseline
	sharePct                                       map[string]float64 // sampled attribution of the full pipeline
}

// simTarget is one simulator configuration the ledger times.
type simTarget struct {
	name        string
	pipeline    bool
	counting    bool // open the measurement window, so the census counts
	noTranslate bool
	cfg         core.Config
}

func loadLedgerProgram() (*program.Image, []byte, error) {
	src, _ := repro.WorkloadSource(ledgerProgram)
	im, err := minic.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	input, _ := repro.WorkloadInput(ledgerProgram, 1)
	return im, input, nil
}

// timeSim runs ledgerWindow instructions of t on a fresh machine and
// returns the time Machine.Run took.
func timeSim(im *program.Image, input []byte, t simTarget) (time.Duration, *core.Pipeline, error) {
	runtime.GC() // start every target from the same clean heap
	m := cpu.New(im, input)
	m.NoTranslate = t.noTranslate
	var p *core.Pipeline
	if t.pipeline {
		p = core.NewPipeline(im, t.cfg)
		m.Attach(p)
		p.SetCounting(t.counting)
	}
	start := time.Now()
	got, err := m.Run(ledgerWindow)
	d := time.Since(start)
	if err != nil || got != ledgerWindow {
		return 0, nil, fmt.Errorf("%s: ran %d of %d instructions: %v", t.name, got, ledgerWindow, err)
	}
	return d, p, nil
}

// measureSim times the simulator targets in waves, each target keeping
// its fastest wave. Each observer's cost (and the full pipeline's) is
// also paired: the target runs between two runs of the census-only
// baseline, its delta is its time minus the mean of the two, and the
// ledger keeps the median delta over the waves, so drift of the host's
// speed cancels instead of landing on the difference of two minima. The
// census's own cost is paired the same way against the census-only
// pipeline with the measurement window closed, which pays the pipeline's
// batching but never consults the census.
func measureSim() (*simLedger, error) {
	im, input, err := loadLedgerProgram()
	if err != nil {
		return nil, err
	}
	base := simTarget{name: "census", pipeline: true, counting: true, cfg: censusOnly()}
	alone := []simTarget{
		{name: "bare"},
		{name: "interp", noTranslate: true},
	}
	paired := []simTarget{
		{name: "repetition", pipeline: true, cfg: censusOnly()},
		{name: "full", pipeline: true, counting: true},
	}
	for _, o := range observerNames[1:] {
		paired = append(paired, simTarget{name: o, pipeline: true, counting: true, cfg: withObserver(o)})
	}
	reuse64k := withObserver("reuse")
	reuse64k.ReuseEntries, reuse64k.ReuseAssoc = 65536, 4
	paired = append(paired, simTarget{name: "reuse64k", pipeline: true, counting: true, cfg: reuse64k})

	best := make(map[string]time.Duration)
	keep := func(name string, d time.Duration) {
		if b, ok := best[name]; !ok || d < b {
			best[name] = d
		}
	}
	deltas := make(map[string][]time.Duration)
	costs := make(map[string]int64)
	for w := 0; w < ledgerWaves; w++ {
		for _, t := range alone {
			d, _, err := timeSim(im, input, t)
			if err != nil {
				return nil, err
			}
			keep(t.name, d)
		}
		prev, _, err := timeSim(im, input, base)
		if err != nil {
			return nil, err
		}
		keep(base.name, prev)
		for _, t := range paired {
			d, p, err := timeSim(im, input, t)
			if err != nil {
				return nil, err
			}
			keep(t.name, d)
			if t.name == "full" {
				for _, c := range p.ObserverCosts() {
					costs[c.Name] += c.EstimatedNS
				}
			}
			next, _, err := timeSim(im, input, base)
			if err != nil {
				return nil, err
			}
			keep(base.name, next)
			delta := d - (prev+next)/2
			if t.name == "repetition" { // the census closed: baseline minus target
				delta = -delta
			}
			deltas[t.name] = append(deltas[t.name], delta)
			prev = next
		}
	}
	perInst := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / ledgerWindow }
	l := &simLedger{
		bareNS: perInst(best["bare"]), interpNS: perInst(best["interp"]), censusNS: perInst(best["census"]),
		fullNS: perInst(best["full"]), fullDeltaNS: perInst(median(deltas["full"])),
		reuse64kNS: perInst(median(deltas["reuse64k"])),
		deltaNS:    make(map[string]float64),
		sharePct:   make(map[string]float64),
	}
	var total int64
	for _, o := range observerNames {
		l.deltaNS[o] = perInst(median(deltas[o]))
		total += costs[o]
	}
	for _, o := range observerNames {
		l.sharePct[o] = 100 * float64(costs[o]) / float64(max(total, 1))
	}
	return l, nil
}

// observerSumPct is (census-only + each observer's delta) ÷ the full
// pipeline, in percent. The full pipeline enters as census-only plus its
// own paired delta, so both sides rest on the same kind of estimate.
func (l *simLedger) observerSumPct() float64 {
	sum := l.censusNS
	for _, o := range observerNames[1:] {
		sum += l.deltaNS[o]
	}
	return 100 * sum / (l.censusNS + l.fullDeltaNS)
}

// shareErrPct is the largest gap, in percentage points, between an
// observer's sampled share_pct and its share of the measured deltas.
func (l *simLedger) shareErrPct() float64 {
	var total float64
	for _, o := range observerNames {
		total += l.deltaNS[o]
	}
	var worst float64
	for _, o := range observerNames {
		worst = math.Max(worst, math.Abs(l.sharePct[o]-100*l.deltaNS[o]/total))
	}
	return worst
}

// runLedger times every ledger target and adds its metrics to m.
func runLedger(r *run, m map[string]metric) error {
	sl, err := measureSim()
	if err != nil {
		return err
	}
	m["cpu.translated_mips"] = metric{1e3 / sl.bareNS, "MIPS"}
	m["cpu.interp_mips"] = metric{1e3 / sl.interpNS, "MIPS"}
	m["core.census_only_mips"] = metric{1e3 / sl.censusNS, "MIPS"}
	m["core.full_mips"] = metric{1e3 / sl.fullNS, "MIPS"}
	for _, o := range observerNames {
		m[o+".ns_per_inst"] = metric{sl.deltaNS[o], "ns"}
	}
	m["reuse.ns_per_inst_64k"] = metric{sl.reuse64kNS, "ns"}
	m["core.observer_sum_pct"] = metric{sl.observerSumPct(), "%"}
	m["core.share_err_pct"] = metric{sl.shareErrPct(), "%"}

	steps := []func(*run, map[string]metric) error{
		ledgerPipelineBuild, ledgerCollect, ledgerCheckpoint, ledgerJournal,
		ledgerCache, ledgerServer, ledgerSweep, ledgerCompile,
	}
	for _, step := range steps {
		if err := step(r, m); err != nil {
			return err
		}
	}
	return nil
}

// bestOf runs wave waves times and returns the fastest time it
// reported. Each wave times itself, so it can do untimed set-up first.
func bestOf(waves int, wave func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for w := 0; w < waves; w++ {
		d, err := wave()
		if err != nil {
			return 0, err
		}
		if w == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// fastest runs fn calls times per wave and returns the fastest wave's
// time divided by calls.
func fastest(waves, calls int, fn func() error) (time.Duration, error) {
	best, err := bestOf(waves, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < calls; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	return best / time.Duration(calls), err
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ledgerPipelineBuild times cpu.New + core.NewPipeline at the default
// reuse geometry and at 65536 entries (the sweep's largest cells).
func ledgerPipelineBuild(_ *run, m map[string]metric) error {
	im, input, err := loadLedgerProgram()
	if err != nil {
		return err
	}
	big := core.Config{ReuseEntries: 65536, ReuseAssoc: 4}
	for _, t := range []struct {
		name string
		cfg  core.Config
	}{{"core.build_us", core.Config{}}, {"core.build_us_64k", big}} {
		d, err := fastest(5, 10, func() error {
			mc := cpu.New(im, input)
			mc.Attach(core.NewPipeline(im, t.cfg))
			return nil
		})
		if err != nil {
			return err
		}
		m[t.name] = metric{micros(d), "us"}
	}
	return nil
}

// ledgerCollect times Pipeline.Collect after a census-window run
// (skip 1M uncounted, measure 5M) of the full pipeline.
func ledgerCollect(_ *run, m map[string]metric) error {
	im, input, err := loadLedgerProgram()
	if err != nil {
		return err
	}
	cfg := repro.DefaultConfig()
	mc := cpu.New(im, input)
	p := core.NewPipeline(im, core.Config{})
	mc.Attach(p)
	if _, err := mc.Run(cfg.SkipInstructions); err != nil {
		return err
	}
	p.SetCounting(true)
	if _, err := mc.Run(cfg.MeasureInstructions); err != nil {
		return err
	}
	start := time.Now()
	rep := p.Collect(im, ledgerProgram)
	m["core.collect_ms"] = metric{millis(time.Since(start)), "ms"}
	if rep.DynTotal == 0 {
		return fmt.Errorf("collect: empty report")
	}
	return nil
}

// ledgerCheckpoint times a quick-window RunWorkload with count-paced
// snapshots against the same run without, per snapshot written, and one
// Store.Write of a snapshot-sized body. Like the observer deltas, each
// paced run sits between two unpaced runs and the ledger keeps the
// median delta, so drift of the host's speed cancels.
func ledgerCheckpoint(r *run, m map[string]metric) error {
	store, err := checkpoint.Open(filepath.Join(r.tmp, "ledger-checkpoints"))
	if err != nil {
		return err
	}
	cfg := repro.QuickConfig()
	src, _ := repro.WorkloadSource(ledgerProgram)
	key := resultcache.Fingerprint(ledgerProgram, src, cfg)
	var snapBytes, snaps int
	paced := cfg
	paced.Checkpoint = &repro.CheckpointPolicy{Store: store, Key: key, Every: 100_000,
		Notify: func(ev repro.CheckpointEvent) {
			if !ev.Resumed {
				snapBytes += ev.Bytes
				snaps++
			}
		}}
	timeRun := func(cfg repro.Config) (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		_, err := repro.RunWorkload(r.ctx, ledgerProgram, cfg)
		return time.Since(start), err
	}
	const waves = 7
	var deltas []time.Duration
	prev, err := timeRun(cfg)
	if err != nil {
		return err
	}
	for w := 0; w < waves; w++ {
		d, err := timeRun(paced)
		if err != nil {
			return err
		}
		next, err := timeRun(cfg)
		if err != nil {
			return err
		}
		deltas = append(deltas, d-(prev+next)/2)
		prev = next
	}
	var writes int64
	for _, v := range store.StatValues() {
		if v.Name == "writes" {
			writes = v.Value
		}
	}
	if writes == 0 || snaps == 0 {
		return fmt.Errorf("checkpoint: no snapshots written")
	}
	perRun := float64(writes) / waves
	m["checkpoint.snapshot_bytes"] = metric{float64(snapBytes) / float64(snaps), "bytes"}
	m["checkpoint.snapshot_ms"] = metric{millis(median(deltas)) / perRun, "ms"}

	body := make([]byte, snapBytes/snaps)
	rand.Read(body)
	d, err := fastest(10, 1, func() error { return store.Write(key, body) })
	if err != nil {
		return err
	}
	m["checkpoint.write_ms"] = metric{millis(d), "ms"}
	store.Remove(key)
	return nil
}

// ledgerJournal times one fsynced jobs journal append.
func ledgerJournal(r *run, m map[string]metric) error {
	j, _, err := jobs.OpenJournal(filepath.Join(r.tmp, "ledger-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	rec := jobs.Record{ID: "ledger", Spec: jobs.SpecFromConfig(ledgerProgram, repro.QuickConfig()), State: jobs.StateQueued}
	d, err := fastest(20, 1, func() error {
		rec.Seq++
		return j.Append(rec)
	})
	if err != nil {
		return err
	}
	m["jobs.append_ms"] = metric{millis(d), "ms"}
	return nil
}

// ledgerCache times the result cache's fingerprint, a memory hit, and a
// disk hit on a fresh cache over a populated directory.
func ledgerCache(r *run, m map[string]metric) error {
	cfg := repro.QuickConfig()
	rep, err := repro.RunWorkload(r.ctx, ledgerProgram, cfg)
	if err != nil {
		return err
	}
	src, _ := repro.WorkloadSource(ledgerProgram)
	key := resultcache.Fingerprint(ledgerProgram, src, cfg)
	d, err := fastest(5, 2000, func() error {
		if resultcache.Fingerprint(ledgerProgram, src, cfg) != key {
			return fmt.Errorf("fingerprint is not deterministic")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["resultcache.fingerprint_us"] = metric{micros(d), "us"}

	dir := filepath.Join(r.tmp, "ledger-cache")
	cache, err := resultcache.NewWith(resultcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	computed := func(context.Context) (*repro.Report, error) { return rep, nil }
	uncomputed := func(context.Context) (*repro.Report, error) { return nil, fmt.Errorf("cache missed") }
	if _, err := cache.GetOrCompute(r.ctx, key, computed); err != nil {
		return err
	}
	d, err = fastest(5, 200, func() error {
		_, err := cache.GetOrCompute(r.ctx, key, uncomputed)
		return err
	})
	if err != nil {
		return err
	}
	m["resultcache.mem_hit_us"] = metric{micros(d), "us"}

	d, err = bestOf(20, func() (time.Duration, error) {
		fresh, err := resultcache.NewWith(resultcache.Options{Dir: dir})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = fresh.GetOrCompute(r.ctx, key, uncomputed)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	m["resultcache.disk_hit_us"] = metric{micros(d), "us"}
	return nil
}

// ledgerServer times a report-server cache hit through Handler() and
// the canonical encoding it serves, and reads the admission queue wait
// from the server's own traces of its cold requests. The requests come
// one at a time, so the wait is the gate's uncontended cost: what serve's
// jobs pay, since its writer runs one job at a time (the gate admits
// GOMAXPROCS) and cache hits never queue. On census and sweep, which
// have no server, the hit ratio comes from this server too.
func ledgerServer(r *run, m map[string]metric) error {
	cache, err := resultcache.New(0, "")
	if err != nil {
		return err
	}
	srv := reportserver.New(reportserver.Config{RunConfig: repro.QuickConfig(), Cache: cache})
	srv.MarkReady()
	h := srv.Handler()
	get := func(path string) (*httptest.ResponseRecorder, error) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			return w, fmt.Errorf("GET %s: status %d", path, w.Code)
		}
		return w, nil
	}
	var waits []float64
	for _, name := range repro.Workloads() {
		w, err := get("/v1/report/" + name)
		if err != nil {
			return err
		}
		tw, err := get("/debug/traces/" + w.Header().Get("X-Instrep-Trace"))
		if err != nil {
			return err
		}
		var doc obs.TraceDoc
		if err := json.Unmarshal(tw.Body.Bytes(), &doc); err != nil {
			return err
		}
		waits = append(waits, queueWaits(doc.Spans)...)
	}
	if len(waits) == 0 {
		return fmt.Errorf("server traces hold no queue spans")
	}
	var total float64
	for _, w := range waits {
		total += w
	}
	m["overload.queue_wait_ms"] = metric{total / float64(len(waits)) / 1e6, "ms"}

	d, err := fastest(5, 200, func() error {
		_, err := get("/v1/report/" + ledgerProgram)
		return err
	})
	if err != nil {
		return err
	}
	m["reportserver.hit_us"] = metric{micros(d), "us"}

	rep, err := repro.RunWorkload(r.ctx, ledgerProgram, repro.QuickConfig())
	if err != nil {
		return err
	}
	d, err = fastest(5, 200, func() error {
		_, err := repro.CanonicalReportJSON(rep)
		return err
	})
	if err != nil {
		return err
	}
	m["reportserver.canonical_us"] = metric{micros(d), "us"}

	ratio := float64(cache.Stats.Hits.Value()) / float64(cache.Stats.Hits.Value()+cache.Stats.DiskHits.Value()+cache.Stats.Misses.Value())
	if r.hitRatio != nil {
		ratio = *r.hitRatio
	}
	m["resultcache.hit_ratio"] = metric{ratio, "ratio"}
	return nil
}

// queueWaits collects the wait_ns attribute of every queue span.
func queueWaits(pt obs.PhaseTiming) []float64 {
	var out []float64
	if pt.Name == "queue" {
		if w, ok := pt.Attrs["wait_ns"].(float64); ok {
			out = append(out, w)
		}
	}
	for _, c := range pt.Children {
		out = append(out, queueWaits(c)...)
	}
	return out
}

// ledgerSweep times the sweep engine's own per-cell cost: the golden
// grid with a RunFunc that returns a canned report.
func ledgerSweep(r *run, m map[string]metric) error {
	rep, err := repro.RunWorkload(r.ctx, ledgerProgram, repro.QuickConfig())
	if err != nil {
		return err
	}
	canned := func(context.Context, string, repro.Config) (*repro.Report, error) { return rep, nil }
	cells, err := sweep.Expand(goldenSpec())
	if err != nil {
		return err
	}
	d, err := fastest(5, 1, func() error {
		eng := &sweep.Engine{Run: canned, Parallel: sweepParallel, Metrics: obs.NewRegistry()}
		_, err := eng.Execute(r.ctx, goldenSpec())
		return err
	})
	if err != nil {
		return err
	}
	m["sweep.cell_overhead_us"] = metric{micros(d) / float64(len(cells)), "us"}
	return nil
}

// ledgerCompile times minic.Compile of the eight sources.
func ledgerCompile(_ *run, m map[string]metric) error {
	d, err := fastest(3, 1, compileAll)
	if err != nil {
		return err
	}
	m["minic.compile_ms"] = metric{millis(d), "ms"}
	return nil
}
