package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
)

// CellResult is one grid point's measured outcome: the axis values
// that name it, the measurement key its run was fingerprinted under,
// and the Table 10 hit rates. A failed cell carries its error text and
// zeroed statistics.
type CellResult struct {
	Workload string
	Entries  int
	Assoc    int
	Policy   string
	Skip     uint64
	Measure  uint64

	// ConfigKey is core.Config.MeasurementKey() for the cell — the
	// canonical fragment its result-cache fingerprint hashes, so an
	// artifact row can be traced back to the exact config that ran.
	ConfigKey string

	// Measured/DynTotal are the run's instruction accounting.
	Measured uint64
	DynTotal uint64
	// HitPctAll/HitPctRepeated are Table 10's two percentages at this
	// design point: reuse-buffer hits as % of all measured
	// instructions, and as % of census-repeated instructions.
	HitPctAll      float64
	HitPctRepeated float64

	Error string `json:",omitempty"`

	// Report is the cell's full report, for differential tests and
	// partial-result rendering; it never enters the artifact. Treat it
	// as read-only: a cached report is shared with other callers, and a
	// replayed one shares its slices with its group leader's.
	Report *core.Report `json:"-"`
}

// OK reports whether the cell ran to completion.
func (c *CellResult) OK() bool { return c.Error == "" }

// AggregateRow is one config point's cross-workload mean: the same
// axis values with the per-workload hit rates averaged (unweighted —
// every workload measures the same window) over the cells that
// succeeded.
type AggregateRow struct {
	Entries int
	Assoc   int
	Policy  string
	Skip    uint64
	Measure uint64

	// Workloads is how many cells contributed (fewer than the workload
	// axis when some failed; 0 means every workload at this point
	// failed and the means are zero).
	Workloads          int
	MeanHitPctAll      float64
	MeanHitPctRepeated float64
}

// Result is the merged comparative artifact of one sweep. Cells are in
// expansion order and Aggregate has one row per config point in the
// same order, so the whole document is a pure function of (spec,
// simulator version) — byte-identical across repeats and parallelism.
type Result struct {
	Workloads []string
	Cells     []CellResult
	Aggregate []AggregateRow
}

// newCellResult folds one cell's run outcome into its result row.
func newCellResult(c Cell, rep *core.Report, err error) CellResult {
	out := CellResult{
		Workload:  c.Workload,
		Entries:   c.Entries,
		Assoc:     c.Assoc,
		Policy:    c.Policy.String(),
		Skip:      c.Window.Skip,
		Measure:   c.Window.Measure,
		ConfigKey: c.Config.MeasurementKey(),
	}
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Measured = rep.MeasuredInstructions
	out.DynTotal = rep.DynTotal
	out.HitPctAll = rep.ReusePctAll
	out.HitPctRepeated = rep.ReusePctRepeated
	out.Report = rep
	return out
}

// newResult assembles the artifact: cells verbatim (already in
// expansion order), then one aggregate row per contiguous config-point
// group. Workload is the innermost expansion axis, so each group is
// exactly len(workloads) consecutive cells.
func newResult(sp *Spec, cells []CellResult) *Result {
	r := &Result{Workloads: append([]string(nil), sp.Workloads...), Cells: cells}
	per := len(sp.Workloads)
	for base := 0; base+per <= len(cells); base += per {
		group := cells[base : base+per]
		row := AggregateRow{
			Entries: group[0].Entries,
			Assoc:   group[0].Assoc,
			Policy:  group[0].Policy,
			Skip:    group[0].Skip,
			Measure: group[0].Measure,
		}
		for i := range group {
			if !group[i].OK() {
				continue
			}
			row.Workloads++
			row.MeanHitPctAll += group[i].HitPctAll
			row.MeanHitPctRepeated += group[i].HitPctRepeated
		}
		if row.Workloads > 0 {
			row.MeanHitPctAll /= float64(row.Workloads)
			row.MeanHitPctRepeated /= float64(row.Workloads)
		}
		r.Aggregate = append(r.Aggregate, row)
	}
	return r
}

// csvHeader is the artifact's fixed column set. Cell rows carry scope
// "cell"; aggregate rows carry scope "mean" with an empty workload and
// instruction columns.
const csvHeader = "scope,workload,entries,assoc,policy,skip,measure,measured,dyn_total,hit_pct_all,hit_pct_repeated,error\n"

// CSV renders the canonical comparative table: the header, every cell
// row in expansion order, then every aggregate row. Floats are fixed
// to four decimals so the bytes are stable; error text is quoted when
// it contains CSV metacharacters.
func (r *Result) CSV() []byte {
	var b bytes.Buffer
	b.WriteString(csvHeader)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "cell,%s,%d,%d,%s,%d,%d,%d,%d,%s,%s,%s\n",
			c.Workload, c.Entries, c.Assoc, c.Policy, c.Skip, c.Measure,
			c.Measured, c.DynTotal, pct(c.HitPctAll), pct(c.HitPctRepeated),
			csvQuote(c.Error))
	}
	for i := range r.Aggregate {
		a := &r.Aggregate[i]
		fmt.Fprintf(&b, "mean,,%d,%d,%s,%d,%d,,,%s,%s,\n",
			a.Entries, a.Assoc, a.Policy, a.Skip, a.Measure,
			pct(a.MeanHitPctAll), pct(a.MeanHitPctRepeated))
	}
	return b.Bytes()
}

// JSON renders the artifact as indented canonical JSON with a trailing
// newline (the same conventions as the canonical report form).
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// pct formats a percentage with fixed precision for byte stability.
func pct(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// csvQuote quotes a field if it contains a comma, quote, or newline.
func csvQuote(s string) string {
	if !bytes.ContainsAny([]byte(s), ",\"\n\r") {
		return s
	}
	return `"` + string(bytes.ReplaceAll([]byte(s), []byte(`"`), []byte(`""`))) + `"`
}
