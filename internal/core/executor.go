package core

import (
	"context"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/dimplane"
	"cjoin/internal/query"
)

// Handle tracks one submitted logical query. internal/shard.Group's
// handle is the one implementation: every shard pipeline the query runs
// on reports into it (Reporter), and it decides the query's outcome in
// one place. The observability methods expose the paper's §3.2.3
// promise — progress and completion estimates derived from the
// continuous scan position.
type Handle interface {
	// Slot returns the query's CJOIN identifier in [0, maxConc): its
	// slot on the group's dimension plane.
	Slot() int
	// Wait blocks until the query completes and returns its results. The
	// result is delivered exactly once; Wait must have a single consumer.
	Wait() QueryResult
	// Done returns a channel closed once the query's slot (on every
	// shard) has been fully recycled — Algorithm 2 cleanup finished. The
	// result is always delivered before Done closes, so Done doubles as a
	// "slot free" signal for admission control layered above.
	Done() <-chan struct{}
	// Cancel abandons the query; ErrQueryCanceled is delivered
	// immediately and the slot is retired at the next page boundary. It
	// reports whether this call initiated the cancellation.
	Cancel() bool
	// PagesScanned returns the fact pages charged to the query so far.
	PagesScanned() int64
	// ETA estimates time to completion from the current processing rate
	// (§3.2.3); ok is false while no progress is observable.
	ETA() (time.Duration, bool)
	// Progress returns the fraction of the query's scan completed, [0,1].
	Progress() float64
	// Submission is the paper's §6.2.2 registration latency: from Submit
	// entry until the query-start control tuple entered the pipeline.
	Submission() time.Duration
}

// Executor is the execution tier behind the admission queue and the HTTP
// service layer: anything that can register bound star queries and run
// them to completion. internal/shard.Group is the implementation: it
// admits each query once to its dimension plane and runs it on N ≥ 1
// fact-partitioned pipelines. Admission and serving depend on this
// interface only — it is the seam where tests and the benchmark put
// fakes and decorators — and it holds exactly what they call.
type Executor interface {
	// SubmitBatch registers K bound queries (Algorithm 1) in one
	// dimension-plane round, paying one store snapshot publication per
	// dimension for the whole batch; a lone query is a batch of one.
	// Each handle delivers its query's results after one full scan
	// cycle.
	//
	// The two slices are parallel to qs: for each i exactly one of
	// handles[i] (success) or errs[i] (per-query failure, e.g.
	// activation on a stopped shard) is non-nil. A non-nil error return
	// means the whole batch failed up front — no query was admitted,
	// handles and errs are nil. ErrTooManyQueries is such an error: the
	// batch did not fit the free slots. Callers that want partial
	// progress after any other whole-batch error retry in batches of
	// one, which attributes the error to the query that causes it.
	SubmitBatch(ctx context.Context, qs []*query.Bound) (handles []Handle, errs []error, err error)
	// MaxConcurrent returns the executor's maxConc bound — the number of
	// concurrent query slots.
	MaxConcurrent() int
	// ActiveQueries returns the number of queries currently registered.
	ActiveQueries() int
	// Quiesce blocks until no queries are in flight.
	Quiesce()
	// Health reports the per-shard serving state.
	Health() Health
	// StatsWithShards returns execution counters summed across shards
	// and the per-shard breakdown, derived from one snapshot so the
	// breakdown sums exactly to the totals.
	StatsWithShards() (Stats, []Stats)
	// PlaneStats snapshots the dimension plane, which is admitted to
	// once per logical query and shared by every shard.
	PlaneStats() dimplane.Stats
	// ShardPartitions returns the global partition indices dealt to
	// each shard, or nil when the fact table is not range-partitioned.
	ShardPartitions() [][]int
}

// Reporter is the logical query a shard pipeline's runs report to: the
// group's Handle. Each method is called exactly once per run.
type Reporter interface {
	// Report delivers the run's outcome: its partial aggregate (nil for a
	// sink query) at the end-of-query control tuple (§3.3.2), or the
	// terminal error of a pipeline that stopped or failed first.
	Report(shard int, rows []agg.Result, err error)
	// Recycled reports that the pipeline has recycled the run's slot
	// (Algorithm 2, or the Stop and fail sweeps). A Report racing it on
	// another goroutine may not have returned yet.
	Recycled()
}
