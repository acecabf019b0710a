package core

import (
	"context"
	"testing"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/dimplane"
	"cjoin/internal/query"
)

// NewTestPipeline builds one shard pipeline (over a private plane unless
// sc brings one) for tests of a pipeline's internals.
func NewTestPipeline(tb testing.TB, star *catalog.Star, cfg Config, sc ShardConfig) *Pipeline {
	if sc.Plane == nil {
		sc.Plane = dimplane.New(star, dimplane.Config{MaxConcurrent: cfg.Normalized().MaxConcurrent})
	}
	p, err := NewPipeline(star, cfg, sc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Stop)
	return p
}

// TestQuery is the logical query a test's pipeline run reports into,
// standing in for the shard group's handle: Wait returns the run's own
// partial (unordered and unlimited) or its error, and when the pipeline
// recycles the slot it retires the slot's plane hold and closes Done.
// The embedded Run carries the page counts and the cancel hook.
type TestQuery struct {
	Run
	plane *dimplane.Plane
	slot  int
	res   chan QueryResult
	done  chan struct{}
}

func newTestQuery(p *Pipeline, slot int) *TestQuery {
	return &TestQuery{plane: p.plane, slot: slot, res: make(chan QueryResult, 1), done: make(chan struct{})}
}

func (tq *TestQuery) Report(_ int, rows []agg.Result, err error) {
	tq.res <- QueryResult{Rows: rows, Err: err}
}

func (tq *TestQuery) Recycled() {
	tq.plane.Retire(tq.slot)
	close(tq.done)
}

func (tq *TestQuery) Wait() QueryResult { return <-tq.res }

func (tq *TestQuery) Done() <-chan struct{} { return tq.done }

// Admit is the tests' one admission path outside internal/shard: a plane
// round of one, then Activate. A failed activation never recycles, so
// the slot is retired here.
func (p *Pipeline) Admit(q *query.Bound) (*TestQuery, error) {
	slots, err := p.plane.AdmitBatch(context.Background(), []*query.Bound{q})
	if err != nil {
		return nil, err
	}
	tq := newTestQuery(p, slots[0])
	tq.Run, err = p.Activate(context.Background(), q, slots[0], nil, tq)
	if err != nil {
		p.plane.Retire(slots[0])
		return nil, err
	}
	return tq, nil
}
