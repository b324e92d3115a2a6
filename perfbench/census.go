package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
)

// censusDigests pins the SHA-256 of each program's canonical report at
// the census window (repro.DefaultConfig). Re-record it with
// `perfbench --record-digests`, which refuses to write a digest the
// interpreter does not reproduce.
//
//go:embed census.sha256
var censusDigests string

const digestFile = "perfbench/census.sha256"

func loadDigests() (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(censusDigests))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			out[f[1]] = f[0]
		}
	}
	for _, name := range repro.Workloads() {
		if out[name] == "" {
			return nil, fmt.Errorf("%s has no digest for %s", digestFile, name)
		}
	}
	return out, nil
}

// census is the batch product: repro.RunWorkload runs each program in
// turn on one goroutine at the default window, all seven observers on,
// translated, with no cache and no watchdog. Its programs come from the
// workloads' own image cache, warmed once. The primary operation is
// one program's run; the batch is one pass over all eight.
func census(r *run) (*sample, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	s := &sample{}
	if err := warmImages(r.ctx); err != nil {
		return nil, err
	}

	// The seed picks the program each pass starts with.
	names := repro.Workloads()
	first := int(uint64(r.seed) % uint64(len(names)))
	names = append(append([]string{}, names[first:]...), names[:first]...)
	// Passes run until the next one would end more than half a pass past
	// the run's length, so a slow host does not stretch the run by a
	// whole pass.
	cfg := repro.DefaultConfig()
	start := time.Now()
	for len(s.batches) == 0 || time.Since(start)+sum(s.batches)/time.Duration(2*len(s.batches)) < r.seconds {
		pass := time.Now()
		for _, name := range names {
			// Set-up (compiling the eight programs) is timed before
			// every program run, so its median samples the whole run.
			if err := timeSetup(s, compileAll); err != nil {
				return nil, err
			}
			sp := r.tracer.begin("bench.run")
			t0 := time.Now()
			rep, err := repro.RunWorkload(r.ctx, name, cfg)
			d := time.Since(t0)
			sp.end()
			s.addOp(d)
			if err != nil {
				r.fail("census %s: %v", name, err)
				continue
			}
			if rep.Metrics != nil {
				sp.attach(rep.Metrics.Phases, t0)
			}
			s.sim.add(rep)
			if got := reportDigest(rep); got != digests[name] {
				r.fail("census %s: canonical report digest %s, want %s", name, got, digests[name])
				continue
			}
			r.ok()
		}
		s.batches = append(s.batches, time.Since(pass))
	}
	s.opsWall = sum(s.batches)
	s.batchWall = s.opsWall
	return s, nil
}

func reportDigest(rep *repro.Report) string {
	data, err := repro.CanonicalReportJSON(rep)
	if err != nil {
		return "unserializable: " + err.Error()
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// recordDigests rewrites the census digest file. Each digest is taken
// on the translated path and must be reproduced by the single-step
// interpreter before it is written.
func recordDigests(ctx context.Context) error {
	var b bytes.Buffer
	for _, name := range repro.Workloads() {
		cfg := repro.DefaultConfig()
		rep, err := repro.RunWorkload(ctx, name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cfg.DisableTranslation = true
		ref, err := repro.RunWorkload(ctx, name, cfg)
		if err != nil {
			return fmt.Errorf("%s (interpreted): %w", name, err)
		}
		got, want := reportDigest(rep), reportDigest(ref)
		if got != want {
			return fmt.Errorf("%s: translated digest %s differs from interpreted %s", name, got, want)
		}
		fmt.Fprintf(&b, "%s  %s\n", got, name)
	}
	return os.WriteFile(filepath.FromSlash(digestFile), b.Bytes(), 0o644)
}
