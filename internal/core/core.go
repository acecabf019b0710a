// Package core implements CJOIN, the shared physical operator for
// concurrent star queries introduced in "A Scalable, Predictable Join
// Operator for Highly Concurrent Data Warehouses" (Candea, Polyzotis,
// Vingralek — VLDB 2009).
//
// A Pipeline is the paper's single "always on" plan (§3.1):
//
//	continuous fact scan → Preprocessor → Filters (in Stages) →
//	Distributor → one aggregation operator per registered query
//
// Fact tuples flow through the pipeline in batches; each tuple carries a
// bit-vector with one bit per registered query. Each Filter holds a
// dimension hash table storing the union of dimension tuples selected by
// any current query, each tagged with its own bit-vector. A single probe
// therefore joins a fact tuple against one dimension for all queries at
// once (§3.2). Queries latch onto the running scan at any time and
// complete once it has delivered every page they need exactly once: one
// full cycle (§3.3), or less where §5 or the zone maps prune.
//
// The implementation follows §4: the Preprocessor and Distributor each
// own one goroutine; Filters are boxed into Stages with a configurable
// layout (horizontal, vertical, hybrid) and thread count; tuples move
// between threads in batches; tuple memory comes from a preallocated
// pool. A batch is one fact page, decoded by the source straight into
// the batch's row arena, plus a selection vector: a tuple is a row index,
// its bit-vector a cell of a flat arena, a joined dimension row an int32
// table slot — Filters shrink the selection and never move or allocate a
// tuple (batch.go). Control tuples are kept ordered relative to data
// tuples (§3.3.3) by sequencing batches at the Preprocessor and restoring
// order in the Distributor.
//
// A Pipeline is a shard, not an executor: internal/shard.Group is the
// only Executor. It owns the dimension plane, admits each query to it
// once, and enters the query into each of its pipelines through
// Pipeline.Activate — at one shard as at N. Activate returns the shard's
// Run (page counts and a cancel hook); the run reports its partial
// result, or its terminal error, and its slot recycling into the
// group's Handle (Reporter), which alone decides the query's outcome.
package core

import (
	"runtime"
	"time"

	"cjoin/internal/dimplane"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
)

// Layout selects how Filters are boxed into Stages (§4).
type Layout int

const (
	// Horizontal boxes all Filters into one Stage executed by several
	// worker threads; each worker runs the whole filter sequence for a
	// subset of batches. The paper found this layout superior (§6.2.1).
	Horizontal Layout = iota
	// Vertical gives every Filter its own single-threaded Stage wired in
	// a chain.
	Vertical
	// Hybrid groups Filters into Config.Stages chained Stages, dividing
	// Config.Workers among them.
	Hybrid
)

func (l Layout) String() string {
	switch l {
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	case Hybrid:
		return "hybrid"
	}
	return "unknown"
}

// queueLen is the buffer length, in batches, of every inter-stage channel.
const queueLen = 8

// Config tunes a Pipeline. The zero value gets sensible defaults from
// normalize.
type Config struct {
	// MaxConcurrent is the paper's maxConc: the bound on simultaneously
	// registered queries and the width of every bit-vector. Default 64.
	MaxConcurrent int
	// Workers is the number of Stage threads (horizontal: all in the
	// single Stage; hybrid: divided among Stages). Default NumCPU/2,
	// minimum 1.
	Workers int
	// Layout selects the Stage configuration. Default Horizontal.
	Layout Layout
	// Stages is the number of Stages for the Hybrid layout. Default 2.
	Stages int
	// OptimizeInterval is how often the pipeline manager re-optimizes
	// the Filter order from run-time selectivity statistics (§3.4).
	// Zero disables periodic optimization (ReorderFilters can still be
	// called explicitly).
	OptimizeInterval time.Duration
	// PredCacheSize bounds the dimension plane's predicate-scan cache
	// (memoized SelectRows results keyed by canonical predicate
	// fingerprint). 0 selects dimplane.DefaultPredCacheSize; negative
	// disables caching. The plane's owner (internal/shard) reads it.
	PredCacheSize int
	// FactSource overrides the physical source of the continuous scan —
	// e.g. a page-gating or fault-injecting decorator over the fact heap.
	// Row width must match the star's fact schema. Incompatible with
	// partitioned stars.
	FactSource PageSource
	// ScanRetries bounds how many times a transient fact-scan error is
	// retried at the same page boundary before the pipeline escalates to
	// the terminal Failed state. Default 4.
	ScanRetries int
	// ScanRetryBackoff is the first retry's backoff; it doubles per
	// attempt, capped at 100ms. Default 500µs.
	ScanRetryBackoff time.Duration
	// Logf, when non-nil, receives pipeline lifecycle warnings (failure
	// transitions above all). The pipeline never logs on its own.
	Logf func(format string, args ...any)
}

// ShardConfig is what a pipeline's owner, internal/shard.Group, hands
// each of its shard pipelines beside Config: the shared plane, the
// shard's part of the fact table, its fault injector and its telemetry
// labels. Only shard.New builds one.
type ShardConfig struct {
	// Index is the shard's position in its group: the "shard" label of
	// the pipeline's metric families, so N pipelines share each family.
	Index int
	// Plane is the group's dimension plane. The group admits each
	// logical query to it once (Plane.AdmitBatch) and activates it on
	// every shard (Pipeline.Activate); the shards' Filters probe its
	// copy-on-write snapshots.
	Plane *dimplane.Plane
	// PartSubset restricts the continuous scan to the given global
	// partition indices of a range-partitioned star (§5), in scan order:
	// the shard's share of the group's partition deal. Nil scans every
	// partition.
	PartSubset []int
	// Fault is this shard's deterministic fault injector for chaos
	// testing (internal/fault): scan faults and armed panic points in the
	// pipeline goroutines. Nil — the production configuration — reduces
	// every hook to a single nil test.
	Fault *fault.Injector
	// Obs is the registry the pipeline's metric families (cjoin_scan_*,
	// cjoin_filter_*, cjoin_pipeline_*) join; their counters are the
	// pipeline's only counts, which Stats reads. Nil means a private
	// registry: telemetry is always on, only unexported.
	Obs *obs.Registry
}

// Normalized fills zero fields with the pipeline defaults. Exported so
// internal/shard can size the structures it shares across its pipelines
// — the dimension plane above all — from the same effective
// configuration NewPipeline will use.
func (c Config) Normalized() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU() / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Stages <= 0 {
		c.Stages = 2
	}
	if c.ScanRetries <= 0 {
		c.ScanRetries = 4
	}
	if c.ScanRetryBackoff <= 0 {
		c.ScanRetryBackoff = 500 * time.Microsecond
	}
	return c
}
