// Command bench is the repository's benchmark: it builds ./cmd/cjoind,
// runs it as a child process, drives it over HTTP through
// internal/server/client with seed-generated workloads, checks the
// answers against internal/ref, and prints every end-to-end and
// per-layer metric by name. See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

var nproc = runtime.NumCPU()

func main() {
	var (
		workloadName = flag.String("workload", "", "driver mode: run this one workload and print one JSON result line")
		seed         = flag.Int64("seed", 1, "workload generation seed")
		seconds      = flag.Int("seconds", 0, "driver mode: measured seconds of the run")
		trace        = flag.Int("trace", 0, "driver mode: 0 prints end-to-end metrics (tracing off), 1 per-layer metrics (counts from a live run, times from the traced run)")
		rows         = flag.Int("rows", 200000, "fact rows of the SSB dataset (cjoind -rows)")
		shards       = flag.Int("shards", 2, "cjoind -shards")
		smoke        = flag.Bool("smoke", false, "suite mode: tiny dataset and windows, to exercise every path quickly")
		aa           = flag.Int("aa", 0, "A/A mode: run every workload this many times, twice, and report spreads against the bounds in BENCHMARK.json")
		compare      = flag.Bool("compare", false, "compare mode: bench -compare old.json new.json applies the bounds in BENCHMARK.json")
	)
	flag.Parse()

	// A driver run must end, child processes included, inside the
	// driver's own 180 s limit; the suite and A/A modes run for minutes.
	limit := 2 * time.Hour
	if *workloadName != "" {
		limit = 170 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *aa > 0:
		err = runAA(ctx, *aa, *seed)
	case *workloadName != "":
		err = runDriver(ctx, *workloadName, *seed, *seconds, *trace == 1, *rows, *shards)
	default:
		err = runSuite(ctx, *seed, *rows, *shards, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
