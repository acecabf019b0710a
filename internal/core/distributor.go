package core

import (
	"errors"

	"cjoin/internal/agg"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
)

// ErrPipelineStopped is reported for queries still in flight when the
// pipeline shuts down.
var ErrPipelineStopped = errors.New("core: pipeline stopped")

// distributor consumes filtered batches, restores sequence order, routes
// every surviving fact tuple to the aggregation operator of each query
// whose bit is set (§3.2.2), and reports each query's partial result when
// its end-of-query control tuple arrives (§3.3.2).
//
// The reorder buffer enforces the §3.3.3 ordering property: a control
// tuple placed before (after) a fact tuple by the Preprocessor is
// processed before (after) it here, no matter how Stage workers
// interleaved the batches in between.
type distributor struct {
	p       *Pipeline
	in      chan *batch
	expect  uint64
	pending map[uint64]*batch
	queries []*runningQuery // slot-indexed; learned from control tuples
	scratch expr.Joined
	routed  int64
}

func newDistributor(p *Pipeline, in chan *batch) *distributor {
	return &distributor{
		p:       p,
		in:      in,
		pending: make(map[uint64]*batch),
		queries: make([]*runningQuery, p.cfg.MaxConcurrent),
		scratch: expr.Joined{Dims: make([][]int64, len(p.star.Dims))},
	}
}

// run processes batches until its input closes. That happens only once
// the pipeline stops or fails, and the Stop and fail sweeps report every
// query still registered here.
func (d *distributor) run() {
	defer d.p.guard("distributor")
	for b := range d.in {
		d.p.fault.PanicPoint(fault.SiteDistributor)
		d.pending[b.seq] = b
		for {
			nb, ok := d.pending[d.expect]
			if !ok {
				break
			}
			delete(d.pending, d.expect)
			d.expect++
			d.process(nb)
		}
	}
}

func (d *distributor) process(b *batch) {
	if b.ctrl != nil {
		d.control(b.ctrl)
		return
	}
	for _, i := range b.sel {
		d.route(b, i)
	}
	d.p.pool.put(b)
}

func (d *distributor) control(c *control) {
	switch c.kind {
	case ctrlStart:
		// Set up the query's aggregation operator (§3.3.1: the control
		// tuple precedes any result tuple for the query). Sink queries
		// route tuples to their fact-to-fact join operator instead (§5).
		rq := c.rq
		if rq.sink == nil {
			rq.aggr = agg.NewHash(rq.q.Aggs, rq.q.GroupBy)
		}
		d.queries[rq.slot] = rq
	case ctrlEnd:
		rq := c.rq
		d.queries[rq.slot] = nil
		// The query's scan window just closed on this pipeline. Last
		// shard wins: the logical query's cycle completes when its
		// slowest shard does.
		rq.q.Trace.MarkLatest(obs.StageCycleComplete)
		// The partial goes to the logical query unordered and unlimited:
		// ORDER BY and LIMIT apply once, after every shard's partial is
		// merged. A sink query reports no rows.
		var rows []agg.Result
		if rq.aggr != nil {
			rows = rq.aggr.Results()
			// The run outlives the query (the server keeps finished
			// queries for status lookups); the hash table must not.
			rq.aggr = nil
		}
		rq.report(rows, nil)
		// Hand the slot to the pipeline manager for Algorithm 2 cleanup.
		d.p.cleanupCh <- rq
	}
}

// route feeds the surviving tuple at arena index i to every query whose
// bit is set. The expr.Joined view aggregation operators and sinks read
// is rebuilt here, for survivors only: the fact row in place in the batch
// arena, and per dimension the snapshot row behind the slot its Filter
// attached.
func (d *distributor) route(b *batch, i int32) {
	d.scratch.Fact = b.row(i)
	for dim := range d.scratch.Dims {
		d.scratch.Dims[dim] = b.dimRow(i, dim)
	}
	b.bv(i).ForEach(func(slot int) bool {
		if rq := d.queries[slot]; rq != nil {
			if rq.sink != nil {
				rq.sink.Consume(&d.scratch)
			} else {
				rq.aggr.Add(&d.scratch)
			}
			d.routed++
		}
		return true
	})
}
