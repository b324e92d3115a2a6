// Command perfbench is the repository benchmark. It runs one workload
// (census, sweep or serve) for a fixed time, checks every output the
// program produces against the pinned references, and prints one JSON
// result line: the end-to-end metrics on an untraced run, or the
// per-layer metrics (trace self times plus the layer ledger) on a traced
// one. See README.md for the workloads, the metrics and how to run it.
//
// It runs from the repository root, because it reads the golden corpus
// under testdata/golden, and keeps every file it writes under
// .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/minic"
)

// buildDir holds everything the benchmark writes, relative to the
// repository root.
const buildDir = ".bench_build"

// maxProcs caps GOMAXPROCS and the load generator's concurrency: the
// reference machine has two cores.
const maxProcs = 2

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark run shares across its workload, its
// tracer and its ledger.
type run struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	tmp     string  // fresh scratch directory, removed when the run ends
	tracer  *tracer // nil on an untraced run

	// hitRatio is the served cache's memory hits ÷ lookups over the
	// load phase (serve only).
	hitRatio *float64

	attempted, failed atomic.Int64
}

// ok counts one operation whose output checked out.
func (r *run) ok() { r.attempted.Add(1) }

// fail counts one failed operation and logs the first few to stderr.
func (r *run) fail(format string, args ...any) {
	r.attempted.Add(1)
	if r.failed.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// sample is what a workload measured. Every workload has a primary
// operation and a batch operation (README.md, "End-to-end metrics").
type sample struct {
	setup []time.Duration

	mu        sync.Mutex
	ops       []time.Duration // primary operation latencies
	opsWall   time.Duration   // wall time the primary operations ran over
	batches   []time.Duration // batch operation latencies
	batchWall time.Duration   // wall time the batches ran over

	sim simTotals

	// serverTime is the served daemons' request handling time, and
	// pollTime the part of it that answered job status polls (serve,
	// traced run only).
	serverTime, pollTime time.Duration
}

func (s *sample) addOp(d time.Duration) {
	s.mu.Lock()
	s.ops = append(s.ops, d)
	s.mu.Unlock()
}

// simTotals accumulates the measure-phase work of the simulations a
// workload ran, from each report's RunMetrics. Safe for concurrent use.
type simTotals struct {
	insts  atomic.Uint64
	wallNS atomic.Int64
}

func (t *simTotals) add(rep *repro.Report) {
	if rep == nil || rep.Metrics == nil {
		return
	}
	if m := rep.Metrics.Phases.Find("measure"); m != nil {
		t.insts.Add(rep.MeasuredInstructions)
		t.wallNS.Add(m.WallNS)
	}
}

func (t *simTotals) reset() {
	t.insts.Store(0)
	t.wallNS.Store(0)
}

var workloadFuncs = map[string]func(*run) (*sample, error){
	"census": census,
	"sweep":  sweepWorkload,
	"serve":  serve,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: census, sweep or serve")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "how long the workload measures")
	trace := flag.Int("trace", 0, "1 = traced run plus the layer ledger, reporting per-layer metrics")
	record := flag.Bool("record-digests", false, "re-record perfbench/census.sha256 (cross-checked on the interpreter) and exit")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	if *record {
		if err := recordDigests(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload census|sweep|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := &run{ctx: context.Background(), seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: tmp}
	if *trace == 1 {
		r.tracer = newTracer()
	}
	s, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	var metrics map[string]metric
	if r.tracer == nil {
		metrics = endToEnd(r, s)
	} else {
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := r.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		metrics = r.tracer.layerMetrics(s)
		if err := runLedger(r, metrics); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
			return 1
		}
	}

	host, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"ops": len(s.ops), "op_tail_pct": 100 * tailQuantile(len(s.ops)),
		"batches": len(s.batches), "setups": len(s.setup),
	})
	fmt.Println(string(host))
	res := result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(r *run, s *sample) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(s.setup).Seconds(), "s"},
		"ok_frac":       {float64(r.attempted.Load()-r.failed.Load()) / float64(max(r.attempted.Load(), 1)), "ratio"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"sim_mips":      {float64(s.sim.insts.Load()) / max(float64(s.sim.wallNS.Load()), 1) * 1e3, "MIPS"},
		"op_p50_ms":     {millis(quantile(s.ops, 0.50)), "ms"},
		"op_tail_ms":    {millis(quantile(s.ops, tailQuantile(len(s.ops)))), "ms"},
		"ops_per_s":     {float64(len(s.ops)) / s.opsWall.Seconds(), "1/s"},
		"batch_p50_s":   {median(s.batches).Seconds(), "s"},
		"batches_per_s": {float64(len(s.batches)) / s.batchWall.Seconds(), "1/s"},
	}
}

// timeSetup runs one set-up from a freshly collected heap and records
// its time. Every workload sets up many times over a run, interleaved
// with its load (before each census program run, each sweep grid, each
// serve round), and setup_s is the median, so it samples the host over
// the whole run rather than in its first second.
func timeSetup(s *sample, fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	s.setup = append(s.setup, time.Since(t0))
	return nil
}

// compileAll compiles the eight workload sources with the bundled
// compiler, the set-up step every workload shares.
func compileAll() error {
	for _, name := range repro.Workloads() {
		src, _ := repro.WorkloadSource(name)
		if _, err := minic.Compile(src); err != nil {
			return fmt.Errorf("compiling %s: %w", name, err)
		}
	}
	return nil
}

// warmImages makes the workloads' own image cache compile every program
// once, so no measured run pays for compilation.
func warmImages(ctx context.Context) error {
	for _, name := range repro.Workloads() {
		if _, err := repro.RunWorkload(ctx, name, repro.Config{MeasureInstructions: 1}); err != nil {
			return fmt.Errorf("warming %s: %w", name, err)
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// tailQuantile is the highest quantile, up to the 99th percentile, that
// leaves at least ten of n samples beyond it; a quantile with fewer
// samples beyond it is little more than the run's slowest outlier. It is
// the 99th percentile from 1000 samples up.
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, 1-10/float64(max(n, 1))))
}

// quantile interpolates linearly between the closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
