// Package sweep is the design-space sweep engine: a declarative spec
// cross-products measurement axes (reuse-buffer entries, associativity,
// replacement policy, measurement window, workload set) into cells,
// each cell a complete core.Config, and executes them through an
// injected runner — in practice repro.Runner, so every cell gets the
// result cache, checkpoint/restore, admission gate, and fault-tolerance
// machinery for free. Cell reports merge deterministically into a
// comparative artifact (canonical CSV + JSON hit-rate curves,
// per-workload and aggregate), so repeated sweeps and any -parallel
// setting produce byte-identical output. See DESIGN.md §17.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/reuse"
	"repro/internal/workloads"
)

// MaxCells bounds a sweep's expanded grid. The cap is a guard against
// runaway specs (and fuzz inputs), far above any real design-space
// study; past it Expand fails with a size diagnostic instead of
// queueing hours of simulation.
const MaxCells = 4096

// Window is one measurement-window axis value: how many instructions
// to skip and then measure (Measure 0 = run to completion).
type Window struct {
	Skip    uint64 `json:"skip"`
	Measure uint64 `json:"measure"`
}

// Spec is a declarative sweep: the cross product of every axis, run
// over every workload. A nil (absent) axis selects its default; a
// present-but-empty axis is an error (an empty grid is never what a
// spec means). Skip/Measure are shorthand for a single window and are
// mutually exclusive with Windows; normalization folds them in, so a
// normalized spec always carries its windows explicitly.
type Spec struct {
	// Entries is the reuse-buffer size axis in total entries
	// (default: the paper's 8192).
	Entries []int `json:"entries,omitempty"`
	// Assoc is the associativity axis (default: the paper's 4).
	Assoc []int `json:"assoc,omitempty"`
	// Policies is the replacement-policy axis: "lru", "fifo", "random"
	// (default: lru, the paper's).
	Policies []string `json:"policies,omitempty"`
	// Windows is the measurement-window axis (default: one window from
	// Skip/Measure).
	Windows []Window `json:"windows,omitempty"`
	// Workloads is the workload set (default: all bundled workloads,
	// report order).
	Workloads []string `json:"workloads,omitempty"`

	// Skip/Measure define the single window when Windows is absent.
	Skip    uint64 `json:"skip,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// MaxInstances is the per-static-instruction instance buffer limit
	// applied to every cell (0 = the paper's 2000).
	MaxInstances int `json:"instances,omitempty"`
	// InputVariant selects the workload input data set for every cell
	// (0 or 1 = standard).
	InputVariant int `json:"input_variant,omitempty"`
}

// Cell is one expanded grid point: a workload plus the complete
// measurement Config its run uses.
type Cell struct {
	Index    int
	Workload string
	Entries  int
	Assoc    int
	Policy   reuse.Policy
	Window   Window
	Config   core.Config
}

// ID names the cell deterministically for spans, progress, and
// diagnostics: config point first, workload last, matching the
// expansion order.
func (c Cell) ID() string {
	return fmt.Sprintf("s%d-m%d-e%d-a%d-%s/%s",
		c.Window.Skip, c.Window.Measure, c.Entries, c.Assoc, c.Policy, c.Workload)
}

// ParseSpec decodes a JSON sweep spec strictly (unknown fields are
// errors — a typoed axis name must not silently select a default) and
// normalizes it. The returned spec round-trips: marshaling and
// re-parsing it expands to the identical cell grid.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	// Token, not More: More reports no value ahead of a stray '}' or ']'.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweep: parsing spec: trailing data after spec object")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// normalize fills absent axes with their defaults, folds Skip/Measure
// into a single window, canonicalizes policy names, and validates
// every axis value. After normalize the spec is self-contained: every
// axis is explicit and Expand cannot fail.
func (s *Spec) normalize() error {
	if s.Entries == nil {
		s.Entries = []int{reuse.DefaultEntries}
	}
	if s.Assoc == nil {
		s.Assoc = []int{reuse.DefaultAssoc}
	}
	if s.Policies == nil {
		s.Policies = []string{reuse.LRU.String()}
	}
	if s.Windows == nil {
		s.Windows = []Window{{Skip: s.Skip, Measure: s.Measure}}
	} else if s.Skip != 0 || s.Measure != 0 {
		return fmt.Errorf("sweep: spec sets both windows and skip/measure (pick one)")
	}
	s.Skip, s.Measure = 0, 0
	if s.Workloads == nil {
		s.Workloads = workloads.Names()
	}

	if err := intAxis("entries", s.Entries, 1, core.MaxReuseEntries); err != nil {
		return err
	}
	if err := intAxis("assoc", s.Assoc, 1, core.MaxReuseAssoc); err != nil {
		return err
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("sweep: empty policies axis")
	}
	seenPol := make(map[reuse.Policy]bool, len(s.Policies))
	for i, name := range s.Policies {
		p, err := reuse.ParsePolicy(name)
		if err != nil {
			return fmt.Errorf("sweep: policies[%d]: %w", i, err)
		}
		if seenPol[p] {
			return fmt.Errorf("sweep: duplicate policy %q", p)
		}
		seenPol[p] = true
		s.Policies[i] = p.String()
	}
	if len(s.Windows) == 0 {
		return fmt.Errorf("sweep: empty windows axis")
	}
	seenWin := make(map[Window]bool, len(s.Windows))
	for _, w := range s.Windows {
		if seenWin[w] {
			return fmt.Errorf("sweep: duplicate window skip=%d measure=%d", w.Skip, w.Measure)
		}
		seenWin[w] = true
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("sweep: empty workloads axis")
	}
	seenWl := make(map[string]bool, len(s.Workloads))
	for _, name := range s.Workloads {
		if _, ok := workloads.ByName(name); !ok {
			return fmt.Errorf("sweep: unknown workload %q (have %v)", name, workloads.Names())
		}
		if seenWl[name] {
			return fmt.Errorf("sweep: duplicate workload %q", name)
		}
		seenWl[name] = true
	}
	if s.MaxInstances < 0 {
		return fmt.Errorf("sweep: negative instances %d", s.MaxInstances)
	}
	if s.InputVariant < 0 {
		return fmt.Errorf("sweep: negative input_variant %d", s.InputVariant)
	}
	if n := s.grid(); n > MaxCells {
		return fmt.Errorf("sweep: grid expands to %d cells (max %d)", n, MaxCells)
	}
	return nil
}

// intAxis validates one integer axis: non-empty, in range, no
// duplicates.
func intAxis(name string, vals []int, lo, hi int) error {
	if len(vals) == 0 {
		return fmt.Errorf("sweep: empty %s axis", name)
	}
	seen := make(map[int]bool, len(vals))
	for _, v := range vals {
		if v < lo || v > hi {
			return fmt.Errorf("sweep: %s value %d out of range [%d, %d]", name, v, lo, hi)
		}
		if seen[v] {
			return fmt.Errorf("sweep: duplicate %s value %d", name, v)
		}
		seen[v] = true
	}
	return nil
}

// grid is the expanded cell count of a normalized spec.
func (s *Spec) grid() int {
	return len(s.Windows) * len(s.Entries) * len(s.Assoc) * len(s.Policies) * len(s.Workloads)
}

// Expand normalizes the spec and cross-products its axes into the
// deterministic cell order the merge relies on: windows, then entries,
// then associativity, then policy, then workload — workload innermost,
// so each config point's cells are contiguous and the aggregate rows
// fall out of a single pass.
func Expand(s *Spec) ([]Cell, error) {
	if err := s.normalize(); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, s.grid())
	for _, win := range s.Windows {
		for _, entries := range s.Entries {
			for _, assoc := range s.Assoc {
				for _, polName := range s.Policies {
					pol, err := reuse.ParsePolicy(polName)
					if err != nil { // unreachable after normalize; belt only
						return nil, err
					}
					for _, wl := range s.Workloads {
						cells = append(cells, Cell{
							Index:    len(cells),
							Workload: wl,
							Entries:  entries,
							Assoc:    assoc,
							Policy:   pol,
							Window:   win,
							Config: core.Config{
								SkipInstructions:    win.Skip,
								MeasureInstructions: win.Measure,
								MaxInstances:        s.MaxInstances,
								ReuseEntries:        entries,
								ReuseAssoc:          assoc,
								ReusePolicy:         pol,
								InputVariant:        s.InputVariant,
							},
						})
					}
				}
			}
		}
	}
	return cells, nil
}
