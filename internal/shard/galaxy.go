package shard

import (
	"sync"

	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/query"
)

// fanIn is the one sink every shard of a sink-carrying query feeds
// (SubmitWithSink): it serializes the shards' Distributors' Consume
// calls. The group's handle calls the caller's Finalize itself, once.
type fanIn struct {
	mu sync.Mutex
	core.TupleSink
}

func (f *fanIn) Consume(j *expr.Joined) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.TupleSink.Consume(j)
}

// ExecuteGalaxy evaluates a two-fact-table galaxy query (§5): qa and qb
// are the star sub-queries over groups a and b (the same group when both
// stars share a fact table); colA and colB are the fact-column indexes of
// the fact-to-fact equi-join pivot. emit is called once per joined pair,
// from b's Distributors one call at a time; the first argument is a
// stable deep copy, the second aliases pipeline buffers.
//
// The build side (qa) runs to completion first, then the probe side joins
// against its hash table — the standard build/probe split for the pivot
// join, with each side's star portion evaluated by CJOIN and therefore
// shared with all concurrent star queries on that fact table.
func ExecuteGalaxy(a, b *Group, qa, qb *query.Bound, colA, colB int, emit func(fa, fb *expr.Joined)) error {
	build := &galaxyBuild{joinCol: colA, table: make(map[int64][]*expr.Joined), sinkDone: newSinkDone()}
	if err := runSink(a, qa, build, &build.sinkDone); err != nil {
		return err
	}
	probe := &galaxyProbe{build: build, joinCol: colB, emit: emit, sinkDone: newSinkDone()}
	return runSink(b, qb, probe, &probe.sinkDone)
}

// runSink runs q on g into sink and waits for the query and the sink's
// Finalize.
func runSink(g *Group, q *query.Bound, sink core.TupleSink, d *sinkDone) error {
	h, err := g.SubmitWithSink(q, sink)
	if err != nil {
		return err
	}
	if res := h.Wait(); res.Err != nil {
		return res.Err
	}
	<-d.done
	return d.err
}

// sinkDone is the Finalize half both galaxy sinks share.
type sinkDone struct {
	err  error
	done chan struct{}
}

func newSinkDone() sinkDone { return sinkDone{done: make(chan struct{})} }

func (s *sinkDone) Finalize(err error) {
	s.err = err
	close(s.done)
}

// galaxyBuild collects the star results of the first sub-query into a
// hash table on the fact-to-fact join key.
type galaxyBuild struct {
	sinkDone
	joinCol int
	table   map[int64][]*expr.Joined
}

func (g *galaxyBuild) Consume(j *expr.Joined) {
	cp := deepCopyJoined(j)
	key := cp.Fact[g.joinCol]
	g.table[key] = append(g.table[key], cp)
}

// galaxyProbe probes the build side's table with the second sub-query's
// tuples.
type galaxyProbe struct {
	sinkDone
	build   *galaxyBuild
	joinCol int
	emit    func(fa, fb *expr.Joined)
}

func (g *galaxyProbe) Consume(j *expr.Joined) {
	for _, fa := range g.build.table[j.Fact[g.joinCol]] {
		g.emit(fa, j)
	}
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
