// Fullpaper regenerates every table and figure of the paper across all
// eight workload analogs. With the default window (1M skip + 5M
// measured per workload) it takes on the order of ten seconds.
//
// Usage: go run ./examples/fullpaper [-skip N] [-measure N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"time"

	"repro"
)

func main() {
	skip := flag.Uint64("skip", 1_000_000, "instructions to skip per workload")
	measure := flag.Uint64("measure", 5_000_000, "instructions to measure per workload")
	flag.Parse()

	cfg := repro.Config{
		SkipInstructions:    *skip,
		MeasureInstructions: *measure,
	}

	start := time.Now()
	reports, err := repro.RunAll(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	slog.Info("full paper run complete",
		"workloads", len(reports), "measured", *measure,
		"elapsed", time.Since(start).Round(time.Millisecond))

	fmt.Print(repro.FormatAll(reports))
}
