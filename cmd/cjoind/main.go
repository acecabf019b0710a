// Command cjoind is the CJOIN daemon: it generates (or sizes) an SSB star
// warehouse, starts the always-on shared pipeline, and serves star
// queries over HTTP with bounded admission queueing, live progress, and
// cancellation — the paper's operator run as a system.
//
// Usage:
//
//	cjoind -addr :8077 -sf 1 -rows 20000 -maxconc 64 -queue 512 -shards 4
//
// Then:
//
//	curl -s localhost:8077/query -d '{"sql":"SELECT COUNT(*) AS n FROM lineorder"}'
//	curl -s localhost:8077/query/q-000001
//	curl -s localhost:8077/query/q-000001/result   # served once, then 410
//	curl -s -X DELETE localhost:8077/query/q-000001
//	curl -s localhost:8077/stats
//	curl -s localhost:8077/metrics
//	curl -s localhost:8077/query/q-000001/trace
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions get 503,
// queued and running queries finish (up to -drain-timeout), the pipeline
// quiesces, and the process exits.
//
// -chaos arms deterministic fault injection (internal/fault grammar) for
// resilience testing: a sharded daemon that loses a pipeline quarantines
// it, keeps serving on the survivors, and reports "degraded" on
// /healthz. -stall-timeout arms the scan-progress liveness check.
//
// A done query's rows are kept until its first /result delivers them in
// full; later fetches answer 410 Gone while status and trace stay.
// -result-mem bounds the rows nobody has fetched yet (oldest released
// first). POST bodies are capped (1 MiB /query, 16 MiB /update; 413).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
	"cjoin/internal/server"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// HTTP server timeouts. There is deliberately no WriteTimeout: GET
// /query/{id}/result blocks until the query finishes, for as long as the
// client's ?timeout= allows, and a write deadline would cut it off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8077", "HTTP listen address")
		sf       = flag.Int("sf", 1, "SSB scale factor")
		rows     = flag.Int("rows", 20000, "fact rows per scale-factor unit")
		seed     = flag.Int64("seed", 42, "dataset generation seed")
		parts    = flag.Int("partitions", 0, "range-partition lineorder into N heaps (0 = off)")
		shards   = flag.Int("shards", 1, "CJOIN pipelines behind one admission queue (1 = the paper's single pipeline; unpartitioned facts are page-strided, range-partitioned facts have whole partitions dealt)")
		maxConc  = flag.Int("maxconc", 64, "pipeline query slots (maxConc)")
		workers  = flag.Int("workers", 0, "stage worker threads (0 = NumCPU/2)")
		queueLen = flag.Int("queue", 0, "admission queue bound (0 = 8*maxconc)")
		maxWait  = flag.Duration("max-wait", 0, "default queue-wait deadline (0 = unlimited)")
		admBatch = flag.Int("admit-batch", 16, "queries drained per admission batch — one dimension-plane round per batch (<=1 = batches of one)")
		predCach = flag.Int("predcache", 0, "dimension predicate-scan cache entries (0 = default, negative = off)")
		diskMBs  = flag.Float64("disk-mbps", 0, "simulated sequential bandwidth in MB/s (0 = unthrottled)")
		seekMs   = flag.Duration("disk-seek", 0, "simulated seek penalty")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		chaos    = flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7;shard=1;scan-err=0.02;scan-fail=40' (see internal/fault)")
		stallTO  = flag.Duration("stall-timeout", 0, "declare a shard dead after this long without scan progress (0 = off)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ and Go runtime gauges on /metrics")
		resMem   = flag.Int64("result-mem", 256, "MiB of done queries' rows kept until fetched; past it the oldest is released and its fetch answers 410")
	)
	flag.Parse()

	chaosSpec, err := fault.Parse(*chaos)
	if err != nil {
		log.Fatalf("-chaos: %v", err)
	}

	log.SetPrefix("cjoind: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	start := time.Now()
	ds, err := ssb.Generate(ssb.Config{
		SF:            *sf,
		FactRowsPerSF: *rows,
		Seed:          *seed,
		Partitions:    *parts,
		Disk: disk.Config{
			SeqBytesPerSec: *diskMBs * (1 << 20),
			SeekPenalty:    *seekMs,
		},
	})
	if err != nil {
		log.Fatalf("generate SSB: %v", err)
	}
	var factRows int64
	for _, p := range ds.Star.Partitions() {
		factRows += p.Heap.NumRows()
	}
	layout := "single heap"
	if ds.Star.PartCol >= 0 {
		layout = fmt.Sprintf("%d range partitions", len(ds.Star.Partitions()))
	}
	log.Printf("SSB sf=%d: %d fact rows, 4 dimensions, %s, generated in %v",
		*sf, factRows, layout, time.Since(start).Round(time.Millisecond))

	// The telemetry plane is always on for the daemon: one registry
	// shared by the executor (per-stage counters, labeled per shard), the
	// admission queue, the fault injectors, and — behind -pprof — the Go
	// runtime gauges. /metrics serves it.
	metrics := obs.NewRegistry()
	if *pprofOn {
		obs.RegisterRuntimeMetrics(metrics)
	}

	coreCfg := core.Config{
		MaxConcurrent:    *maxConc,
		Workers:          *workers,
		PredCacheSize:    *predCach,
		OptimizeInterval: 100 * time.Millisecond,
		Logf:             log.Printf,
	}
	if chaosSpec != nil {
		log.Printf("CHAOS ARMED: %s", chaosSpec)
	}
	group, err := shard.New(ds.Star, shard.Config{
		Shards:       *shards,
		Core:         coreCfg,
		Fault:        chaosSpec,
		StallTimeout: *stallTO,
		Logf:         log.Printf,
		Obs:          metrics,
	})
	if err != nil {
		log.Fatalf("shard group: %v", err)
	}
	group.Start()
	if subs := group.ShardPartitions(); subs != nil {
		log.Printf("execution started: %d pipelines, maxconc=%d, %d range partitions dealt %v",
			group.NumShards(), *maxConc, len(ds.Star.Partitions()), subs)
	} else {
		log.Printf("execution started: %d page-strided pipeline(s), maxconc=%d", group.NumShards(), *maxConc)
	}

	srv := server.New(ds.Star, ds.Txn, group, server.Config{
		Admission:      admission.Config{MaxQueue: *queueLen, MaxWait: *maxWait, BatchAdmit: *admBatch},
		Metrics:        metrics,
		MaxResultBytes: *resMem << 20,
	})
	handler := srv.Handler()
	if *pprofOn {
		// pprof shares the listener but not the API mux: an explicit
		// wrapper keeps the profiling surface behind the flag instead of
		// the DefaultServeMux side-effect import.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof enabled on %s/debug/pprof/", *addr)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining (budget %v)", sig, *drainTO)
	case err := <-errCh:
		group.Stop()
		log.Fatalf("http server: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// Stop fans out to every shard pipeline.
	group.Stop()

	st := srv.Queue().Stats()
	fmt.Fprintf(os.Stderr,
		"cjoind: served %d queries (%d completed, %d canceled, %d expired, %d rejected), peak queue depth %d, mean wait %v\n",
		st.Submitted, st.Completed, st.Canceled, st.Expired, st.Rejected, st.MaxDepth, st.MeanWait.Round(time.Microsecond))
}
