# Convenience targets; everything is plain `go` underneath.

.PHONY: all test vet race check cover bench benchsmoke differential fuzzsmoke crashsmoke jobsmoke stress sweepsmoke perfbench repro lint examples

all: check

# Default gate. Each check runs once: the whole suite with a coverage
# profile (test) and the floor read from it (cover), gofmt and go vet
# (lint), every test under the race detector (race: the differential
# harness, the resilience tests, the durable-job crash/restart test
# and a short chaos run among them), a quick benchmark smoke run, the
# observer helper's tests repeated under -race (differential), a
# bounded fuzz pass over the panic-sensitive decoders, the
# SIGKILL/resume checkpoint soak, the extended chaos run against the
# overload-hardened server, a tiny end-to-end design-space sweep
# through the CLI, and the benchmark module's own vet and tests.
# `vet` and `jobsmoke` stay for use by hand: lint and race cover them.
check: test lint race cover benchsmoke differential fuzzsmoke crashsmoke stress sweepsmoke perfbench

# Enforced statement-coverage floor across the whole module, read from
# the profile `test` writes. The current baseline is ~84%; the floor
# sits a few points below so honest refactors don't trip it while
# untested subsystems do.
COVER_FLOOR := 78

cover: test
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	awk -v t=$$total -v floor=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < floor+0) { printf "FAIL: coverage %.1f%% is below the %d%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% (floor %d%%)\n", t, floor }'

# The whole suite once, without -race, writing the coverage profile
# `cover` checks.
test:
	go build ./... && go test -coverprofile=cover.out -coverpkg=./... ./...

vet:
	go vet ./...

# Every package under the race detector. The root package alone takes
# 320-375 s under -race on two CPUs; tested beside the other packages
# it has taken 534 s and, once, passed Go's 10-minute test timeout. So
# it runs on its own, after the rest. This is the one -race run of the
# differential harness (-run Differential over internal/cpu and the
# root package: translated vs interpreted, watchdog armed vs not,
# observer helper armed vs held off) and of the durable-job crash test
# `jobsmoke` names.
race:
	go test -race $$(go list ./... | grep -vx repro)
	go test -race .

# Full bench harness: one benchmark per table/figure plus ablations
# and the hot-path micro-benchmarks, then a BENCH_run.json snapshot of
# the per-workload RunMetrics (retire rate, observer shares) so the
# perf trajectory is comparable across PRs. The snapshot is recorded
# through the min-of-N-waves harness (WAVES full runs per workload,
# fastest wave kept, per-wave rates and spread under metrics.waves);
# override the wave count with `make bench WAVES=9`.
WAVES ?= 5
bench:
	go test -run '^$$' -bench . -benchmem -benchtime 1x -count 3 .
	go run ./cmd/instrep run -bench all -waves $(WAVES) -metrics json > BENCH_run.json

# The observer helper's soak. The execution-path differentials (the
# machine-level event-stream/state differential over random programs
# and workload prefixes on all three dispatch paths, and the
# pipeline-level canonical-report differentials: translated vs
# interpreted, watchdog armed vs unarmed, observer helper armed vs
# held off, fresh, resumed and giving its CPU up mid-window) run once
# under -race in `race`; run them alone with
# `go test -race -run Differential ./internal/cpu .`. The helper's own
# tests reach its ring, its CPU budget and its panic hand-over from two
# goroutines, so they repeat ten times here.
differential:
	go test -race -count=10 -run Helper ./internal/core

# One-iteration smoke of the throughput benchmarks, of building a
# sweep cell's machine and pipeline (default and 65536x4 reuse
# buffer), and of the report server's memory-tier cache hit through
# Handler() (fast enough for the default check gate).
benchsmoke:
	go test -run '^$$' -bench 'SimulatorRaw|PipelineFull|NewPipeline|CensusObserve|ReuseObserve' -benchtime 1x .
	go test -run '^$$' -bench 'ReportHit' -benchtime 1x ./internal/reportserver

# Bounded fuzz of the no-panic contracts: instruction decoding, the
# MiniC compiler front end, and the result-cache fingerprint (equal
# configs => equal keys, any measurement-field change => new key).
# `go test -fuzz` takes one target at a time, so each gets its own
# short budget.
fuzzsmoke:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/isa
	go test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/minic
	go test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 10s ./internal/resultcache
	go test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 10s ./internal/checkpoint
	go test -run '^$$' -fuzz '^FuzzSweepSpec$$' -fuzztime 10s ./internal/sweep
	go test -run '^$$' -fuzz '^FuzzJournalScan$$' -fuzztime 10s ./internal/jobs

# Crash/resume soak: SIGKILL a checkpointed child process mid-run and
# resume in a fresh process, three times at staggered kill points,
# under the race detector. Byte-equality against a straight-through
# run is asserted on every loop.
crashsmoke:
	INSTREP_CRASH_LOOPS=3 go test -race -run 'TestCrashResumeAcrossProcesses' -count=1 .

# Durable-job chaos: SIGKILL a serve daemon mid-job, restart it over
# the same journal/checkpoint directories, and require the recovered
# job to resume mid-simulation (not restart) and finish with a report
# byte-identical to a straight-through run, under the race detector.
# `race` runs the same test with the same flags, so `check` leaves
# this target out; it stays for running the test alone.
jobsmoke:
	go test -race -run 'TestJobCrashResumeAcrossProcesses' -count=1 .

# Extended chaos run: 50 concurrent clients against the
# overload-hardened server with poisoned workloads, under the race
# detector, with the traffic phase stretched to 30 seconds. The same
# test runs briefly in `race`; this soaks it.
stress:
	INSTREP_STRESS=30s go test -race -run 'TestChaosOverloadedServer' -count=1 .

# End-to-end smoke of the design-space sweep CLI: a tiny grid through
# `instrep sweep`, exercising spec expansion, cell execution, and the
# comparative CSV artifact without any test harness in the way. The
# grid's eight cells differ only in the reuse buffer, so the smoke also
# fails unless seven of them replay the first one's census verdicts. It
# runs the grid twice: as is, and with -checkpoint-dir set to a fresh
# directory, where the cells carry a checkpoint policy and still replay.
sweepsmoke:
	@ck=$$(mktemp -d); trap 'rm -rf "$$ck"' EXIT; \
	for flags in "" "-checkpoint-dir $$ck"; do \
		out=$$(go run ./cmd/instrep sweep -entries 64,256 -assoc 1,4 -policy lru,fifo \
			-bench lzw -skip 1000 -measure 20000 $$flags 2>&1 > /dev/null) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | grep -qx "instrep: 7 of 8 cells replayed from a sibling's census verdicts" || \
			{ echo "FAIL: sweepsmoke wants 7 of 8 cells replayed ($${flags:-no flags})"; exit 1; }; \
	done

# The benchmark is a nested module (perfbench/go.mod), so `go build
# ./...` and `go test ./...` at the root skip it: vet and test it on its
# own, offline, so an internal API change cannot break it unseen.
perfbench:
	cd perfbench && GOWORK=off GOPROXY=off go vet . && GOWORK=off GOPROXY=off go test -count=1 .

# Regenerate every table and figure of the paper.
repro:
	go run ./examples/fullpaper

# gofmt -l exits 0 even when it lists files, so fail on any output.
lint:
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	go vet ./...

examples:
	go run ./examples/quickstart
	go run ./examples/memoization
	go run ./examples/reusebuffer
	go run ./examples/inputsense
	go run ./examples/inlining
