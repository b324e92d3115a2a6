// Package resultcache is a content-addressed cache of measurement
// reports. Runs are fully deterministic — the same (workload source,
// input variant, measurement Config, simulator version) always yields
// the same canonical Report — so a report can be keyed by a
// fingerprint of its inputs and reused instead of re-simulated: the
// paper's reuse-of-results idea applied at whole-run grain.
//
// The cache has an in-memory LRU tier and an optional on-disk tier
// (atomic write-rename, corruption-tolerant reads that fall back to
// recompute), with singleflight deduplication so concurrent requests
// for the same cold key trigger exactly one simulation. See
// DESIGN.md §12.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Fingerprint computes the content-address of a run: a hex SHA-256
// over the workload name, its source text, the measurement-affecting
// Config fields (canonicalized by core.Config.MeasurementKey, so
// Configs that select the same sizes via 0-defaults share a key), and
// core.MeasurementVersion (so any semantic change to the simulator or
// analyses invalidates every cached result). The source's own digest
// is memoized (sourceDigest), so a request pays for hashing its
// workload's source once per process, not once per call.
func Fingerprint(workload, source string, cfg core.Config) string {
	return fingerprint(workload, sourceDigest(source), cfg)
}

// fingerprint is Fingerprint with the source already hashed.
func fingerprint(workload string, src [sha256.Size]byte, cfg core.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "instrep-report|v=%d|workload=%s|src=%x|%s",
		core.MeasurementVersion, workload, src, cfg.MeasurementKey())
	return hex.EncodeToString(h.Sum(nil))
}

// maxSourceDigests bounds the source-digest memo. Every caller passes
// one of the eight bundled workload sources, so this leaves room to
// spare; a source that finds the memo full is hashed on every call
// instead, so arbitrary sources cannot grow it.
const maxSourceDigests = 16

// sourceDigests memoizes the SHA-256 of each workload source
// Fingerprint has hashed.
var sourceDigests struct {
	sync.Mutex
	list []sourceDigestEntry
}

type sourceDigestEntry struct {
	source string
	sum    [sha256.Size]byte
}

// sourceDigest returns sha256.Sum256 of source, memoized. Callers pass
// the same string each time (a bundled workload's Source), so the
// memo's string comparison usually ends at the pointer check.
func sourceDigest(source string) [sha256.Size]byte {
	sourceDigests.Lock()
	defer sourceDigests.Unlock()
	for _, e := range sourceDigests.list {
		if e.source == source {
			return e.sum
		}
	}
	sum := sha256.Sum256([]byte(source))
	if len(sourceDigests.list) < maxSourceDigests {
		sourceDigests.list = append(sourceDigests.list, sourceDigestEntry{source, sum})
	}
	return sum
}

// Cacheable reports whether cfg produces cacheable runs. Fault
// injection makes a run's outcome depend on the plan, which is not
// part of the fingerprint, so faulty configs always recompute.
// (Timeout and watchdog settings are allowed: a run they cut short is
// Truncated, and truncated reports are never stored.)
func Cacheable(cfg core.Config) bool {
	return cfg.Faults == nil
}
