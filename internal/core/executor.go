package core

import (
	"context"
	"time"

	"cjoin/internal/query"
)

// Handle tracks one submitted query: a Pipeline hands one back from
// Activate for its shard, and the executor (internal/shard.Group)
// implements it over its per-shard handles. The observability methods
// expose the paper's §3.2.3 promise — progress and completion estimates
// derived from the continuous scan position.
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
	// Canceled reports whether the query was abandoned via Cancel.
	Canceled() bool
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
// fakes and decorators.
type Executor interface {
	// Submit registers a bound query (Algorithm 1) and returns a handle
	// delivering its results after one full scan cycle.
	Submit(q *query.Bound) (Handle, error)
	// SubmitCtx is Submit with a context: cancellation before or during
	// installation aborts the admission cleanly.
	SubmitCtx(ctx context.Context, q *query.Bound) (Handle, error)
	// MaxConcurrent returns the executor's maxConc bound — the number of
	// concurrent query slots.
	MaxConcurrent() int
	// ActiveQueries returns the number of queries currently registered.
	ActiveQueries() int
	// Stats snapshots execution counters, summed across shards.
	Stats() Stats
	// Quiesce blocks until no queries are in flight.
	Quiesce()
	// Stop shuts the executor down; in-flight queries receive
	// ErrPipelineStopped.
	Stop()
}

// BatchSubmitter is the batch entry of an Executor: register K queries
// in one dimension-plane round, paying one store snapshot publication
// per dimension for the whole batch instead of one per query.
// internal/shard.Group implements it (its Submit and SubmitCtx are
// batches of one); the admission queue type-asserts for it when
// draining a batch and drives an executor without it — a test fake —
// one query at a time.
//
// The two slices are parallel to qs: for each i exactly one of
// handles[i] (success) or errs[i] (per-query failure, e.g. activation
// on a stopped shard) is non-nil. A non-nil error return means the
// whole batch failed up front — no query was admitted, handles and
// errs are nil — and the caller should fall back to SubmitCtx per
// query (which reproduces per-query errors like ErrTooManyQueries with
// the usual semantics).
type BatchSubmitter interface {
	SubmitBatch(ctx context.Context, qs []*query.Bound) (handles []Handle, errs []error, err error)
}
