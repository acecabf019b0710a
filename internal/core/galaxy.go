package core

import "cjoin/internal/expr"

// TupleSink receives the joined star tuples of one query instead of an
// aggregation operator — the §5 galaxy-schema mechanism where "the
// Distributor pipes the results of Qi to a fact-to-fact join operator
// instead of an aggregation operator". A query enters a pipeline with a
// sink through Activate.
//
// Consume is called from the Distributor goroutine; the Joined value
// aliases pipeline buffers and must be deep-copied if retained. Finalize
// is called exactly once, after the last Consume, with the query's
// error: by internal/shard.Group once every shard has reported, never by
// a pipeline.
type TupleSink interface {
	Consume(j *expr.Joined)
	Finalize(err error)
}
