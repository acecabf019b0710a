package core

import (
	"context"
	"fmt"

	"cjoin/internal/expr"
	"cjoin/internal/query"
)

// TupleSink receives the joined star tuples of one query instead of an
// aggregation operator — the §5 galaxy-schema mechanism where "the
// Distributor pipes the results of Qi to a fact-to-fact join operator
// instead of an aggregation operator".
//
// Consume is called from the Distributor goroutine; the Joined value
// aliases pipeline buffers and must be deep-copied if retained. Finalize
// is called exactly once, after the last Consume.
type TupleSink interface {
	Consume(j *expr.Joined)
	Finalize(err error)
}

// SubmitWithSink registers q like Submit but routes its result tuples to
// sink. The returned handle's Wait still reports completion (with empty
// Rows on success).
func (p *Pipeline) SubmitWithSink(q *query.Bound, sink TupleSink) (Handle, error) {
	if sink == nil {
		return nil, fmt.Errorf("core: nil sink")
	}
	return p.submitOne(context.Background(), q, sink)
}

// galaxySideA collects the star results of the first sub-query into a
// hash table on the fact-to-fact join key.
type galaxySideA struct {
	joinCol int
	ndims   int
	table   map[int64][]*expr.Joined
	err     error
	done    chan struct{}
}

func newGalaxySideA(joinCol, ndims int) *galaxySideA {
	return &galaxySideA{
		joinCol: joinCol,
		ndims:   ndims,
		table:   make(map[int64][]*expr.Joined),
		done:    make(chan struct{}),
	}
}

func (g *galaxySideA) Consume(j *expr.Joined) {
	cp := deepCopyJoined(j)
	key := cp.Fact[g.joinCol]
	g.table[key] = append(g.table[key], cp)
}

func (g *galaxySideA) Finalize(err error) {
	g.err = err
	close(g.done)
}

// galaxySideB probes side A's table with the second sub-query's tuples.
type galaxySideB struct {
	a       *galaxySideA
	joinCol int
	emit    func(fa, fb *expr.Joined)
	err     error
	done    chan struct{}
}

func (g *galaxySideB) Consume(j *expr.Joined) {
	for _, fa := range g.a.table[j.Fact[g.joinCol]] {
		g.emit(fa, j)
	}
}

func (g *galaxySideB) Finalize(err error) {
	g.err = err
	close(g.done)
}

// ExecuteGalaxy evaluates a two-fact-table galaxy query (§5): qa and qb
// are the star sub-queries over pipelines a and b (which may be the same
// pipeline when both stars share a fact table); colA and colB are the
// fact-column indexes of the fact-to-fact equi-join pivot. emit is called
// once per joined pair, from b's Distributor goroutine; the first
// argument is a stable deep copy, the second aliases pipeline buffers.
//
// The build side (qa) runs to completion first, then the probe side joins
// against its hash table — the standard build/probe split for the pivot
// join, with each side's star portion evaluated by CJOIN and therefore
// shared with all concurrent star queries on that fact table.
func ExecuteGalaxy(a, b *Pipeline, qa, qb *query.Bound, colA, colB int, emit func(fa, fb *expr.Joined)) error {
	build := newGalaxySideA(colA, len(a.star.Dims))
	ha, err := a.SubmitWithSink(qa, build)
	if err != nil {
		return err
	}
	if res := ha.Wait(); res.Err != nil {
		return res.Err
	}
	<-build.done
	if build.err != nil {
		return build.err
	}

	probe := &galaxySideB{a: build, joinCol: colB, emit: emit, done: make(chan struct{})}
	hb, err := b.SubmitWithSink(qb, probe)
	if err != nil {
		return err
	}
	if res := hb.Wait(); res.Err != nil {
		return res.Err
	}
	<-probe.done
	return probe.err
}

func deepCopyJoined(j *expr.Joined) *expr.Joined {
	cp := &expr.Joined{
		Fact: append([]int64(nil), j.Fact...),
		Dims: make([][]int64, len(j.Dims)),
	}
	for i, d := range j.Dims {
		if d != nil {
			cp.Dims[i] = append([]int64(nil), d...)
		}
	}
	return cp
}
