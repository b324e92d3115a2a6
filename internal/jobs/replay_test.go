package jobs

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestGridJobsReplay submits one workload's cells of the golden sweep
// grid as jobs, one at a time, under a checkpoint policy: the first job
// leads and every later one replays its census verdicts, which the
// status documents and the replayed stat count. Each job's report
// equals a standalone run's bytes and its golden sweep row, and the
// ReportJSON recomputes (there is no cache) replay too.
func TestGridJobsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short mode")
	}
	golden := goldenSweepRows(t)
	cells, err := sweep.Expand(&sweep.Spec{
		Entries: []int{1024, 8192, 65536}, Assoc: []int{1, 4}, Policies: []string{"lru", "random"},
		Workloads: []string{"lzw"}, Skip: 10_000, Measure: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var paths []string
	m := openManager(t, t.TempDir(), Options{
		Checkpoints: store,
		Runner: &repro.Runner{Run: func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
			r, err := repro.RunWorkload(ctx, name, cfg)
			if r != nil {
				mu.Lock()
				paths = append(paths, r.Metrics.ExecPath)
				mu.Unlock()
			}
			return r, err
		}},
	})
	defer m.Drain()
	m.Start()

	for i, c := range cells {
		doc, _, err := m.Submit(SpecFromConfig(c.Workload, c.Config))
		if err != nil {
			t.Fatal(err)
		}
		doc = waitState(t, m, doc.ID, StateDone)
		if doc.Replayed != (i > 0) {
			t.Errorf("%s: replayed %v, want %v", c.ID(), doc.Replayed, i > 0)
		}
		got, err := m.ReportJSON(context.Background(), doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := repro.RunWorkload(context.Background(), c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := repro.CanonicalReportJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: job report differs from a standalone run", c.ID())
		}
		var rep repro.Report
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatal(err)
		}
		key := c.Workload + "/" + strconv.Itoa(c.Entries) + "/" + strconv.Itoa(c.Assoc) + "/" + c.Policy.String()
		pct := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
		row := golden[key]
		if row == nil || pct(rep.ReusePctAll) != row[9] || pct(rep.ReusePctRepeated) != row[10] ||
			strconv.FormatUint(rep.DynTotal, 10) != row[8] {
			t.Errorf("%s: reuse %s/%s, dyn %d; golden row %v", key,
				pct(rep.ReusePctAll), pct(rep.ReusePctRepeated), rep.DynTotal, row)
		}
	}
	if got, want := m.Stats.Replayed.Value(), uint64(len(cells)-1); got != want {
		t.Errorf("replayed stat %d, want %d", got, want)
	}
	// Every run but the first job's replayed: the other jobs, and each
	// job's report recomputed by ReportJSON.
	mu.Lock()
	defer mu.Unlock()
	if len(paths) != 2*len(cells) || paths[0] != obs.ExecTranslated {
		t.Fatalf("runs took paths %v", paths)
	}
	for i, p := range paths[1:] {
		if p != obs.ExecReplay {
			t.Errorf("run %d took %q, want a replay", i+1, p)
		}
	}
	if keys := store.Keys(); len(keys) != 0 {
		t.Errorf("snapshots %v survive the jobs", keys)
	}
}

// goldenSweepRows reads the golden sweep CSV's cell rows, keyed by
// workload/entries/assoc/policy.
func goldenSweepRows(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("../../testdata/golden/sweep/sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, row := range rows {
		if len(row) == 12 && row[0] == "cell" {
			out[row[1]+"/"+row[2]+"/"+row[3]+"/"+row[4]] = row
		}
	}
	return out
}
