package core

// Canonical report form for content-addressed caching and the golden
// corpus: because a run is fully deterministic in (workload source,
// input variant, measurement-affecting Config fields, simulator
// version), the same key always yields the same Report content — the
// only nondeterministic part is the RunMetrics wall-clock document,
// which the canonical form strips. See DESIGN.md §12.

import (
	"encoding/json"
	"fmt"

	"repro/internal/repetition"
	"repro/internal/reuse"
	"repro/internal/vpred"
)

// MeasurementVersion identifies the measurement semantics of this
// build: the ISA, the simulator, the analyses, and the Report schema.
// It is folded into every cache fingerprint, so bumping it — required
// whenever a change alters what any Report field means or contains —
// invalidates all previously cached results at once.
const MeasurementVersion = 1

// MeasurementKey renders the Config fields that affect a Report's
// measured content as a canonical string fragment, with zero-value
// defaults resolved to the concrete sizes they select. Two Configs
// with equal MeasurementKeys produce byte-identical canonical reports;
// fields that only shape the run's execution (Parallel, Timeout,
// WatchdogInterval, DisableTranslation, Checkpoint — a resumed run
// reproduces the uninterrupted run's bytes exactly — Progress, Span)
// are excluded, and fault injection is handled by refusing to cache
// (see resultcache.Cacheable).
func (c Config) MeasurementKey() string {
	instances := c.MaxInstances
	if instances <= 0 {
		instances = repetition.DefaultMaxInstances
	}
	reuseEntries := c.ReuseEntries
	if reuseEntries == 0 {
		reuseEntries = reuse.DefaultEntries
	}
	reuseAssoc := c.ReuseAssoc
	if reuseAssoc == 0 {
		reuseAssoc = reuse.DefaultAssoc
	}
	vpredEntries := c.VPredEntries
	if vpredEntries == 0 {
		vpredEntries = vpred.DefaultEntries
	}
	variant := c.InputVariant
	if variant <= 0 {
		variant = 1
	}
	return fmt.Sprintf(
		"skip=%d|measure=%d|instances=%d|reuse=%d/%d/%s|vpred=%d|variant=%d|taint=%t|local=%t|func=%t|reusebuf=%t|vpredon=%t|vprof=%t",
		c.SkipInstructions, c.MeasureInstructions, instances,
		reuseEntries, reuseAssoc, c.ReusePolicy, vpredEntries, variant,
		!c.DisableTaint, !c.DisableLocal, !c.DisableFunc,
		!c.DisableReuse, !c.DisableVPred, !c.DisableVProf)
}

// CanonicalReport returns a shallow copy of r with the per-run
// observability documents (wall times, retire rates, checkpoint ages
// — the only run-to-run-varying fields) removed, leaving exactly the
// deterministic measured content.
func CanonicalReport(r *Report) *Report {
	cp := *r
	cp.Metrics = nil
	cp.Checkpoint = nil
	return &cp
}

// CanonicalJSON renders the canonical form of r as indented JSON with
// a trailing newline. It is the single serialization used by the
// result cache, the report server, and the golden corpus, so all three
// byte-compare against the same form. Marshaling is deterministic
// (struct fields in declaration order, map keys sorted), and a
// decode/re-encode round trip reproduces the same bytes.
func CanonicalJSON(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(CanonicalReport(r), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
