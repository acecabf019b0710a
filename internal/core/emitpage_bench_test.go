package core

import (
	"context"
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/query"
	"cjoin/internal/ssb"
)

// emitRig hand-drives one pipeline's per-page path — Preprocessor
// emitPage, the four SSB Filters, Distributor route — on the caller's
// goroutine, with 16 resident SSB queries. The pool holds a single batch
// whose row arena already carries one decoded lineorder page, so every
// step is the production code minus the device read.
type emitRig struct {
	p    *Pipeline
	pp   *preprocessor
	dist *distributor
	n    int // rows on the page
}

func newEmitRig(tb testing.TB) *emitRig {
	tb.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 2000, Seed: 101})
	if err != nil {
		tb.Fatal(err)
	}
	p := NewTestPipeline(tb, ds.Star, Config{MaxConcurrent: 64}, ShardConfig{})
	r := &emitRig{p: p, pp: newPreprocessor(p), dist: newDistributor(p, nil)}
	p.pp = r.pp

	w := ssb.NewWorkload(ds, 0.1, 7)
	qs := make([]*query.Bound, 16)
	for i := range qs {
		_, text := w.Next()
		if qs[i], err = query.ParseBind(text, ds.Star); err != nil {
			tb.Fatal(err)
		}
	}
	slots, err := p.plane.AdmitBatch(context.Background(), qs)
	if err != nil {
		tb.Fatal(err)
	}
	for i, q := range qs {
		rq := &runningQuery{p: p, slot: slots[i], q: q}
		rq.needPages = r.pp.scan.needPagesFor(rq, nil) // every page: stays resident
		r.pp.register(ppCmd{rq: rq, done: make(chan struct{})})
		r.dist.control((<-r.pp.out).ctrl) // the query-start control tuple
	}

	geom := r.pp.scan
	rpp := geom.parts[0].src.RowsPerPage()
	p.pool = newTuplePool(1, rpp, geom.parts[0].src.NumCols(), bitvec.Words(p.cfg.MaxConcurrent), len(p.dimStates))
	b := p.pool.get(nil)
	if r.n, _, _, _, err = geom.nextPage(b.rowArena, nil, nil); err != nil || r.n != rpp {
		tb.Fatalf("page read: n=%d err=%v", r.n, err)
	}
	p.pool.put(b)
	return r
}

// page pushes the page through emitPage → Filters → route and returns
// how many tuples reached the Distributor.
func (r *emitRig) page() int {
	r.pp.emitPage(r.p.pool.get(nil), r.n)
	b := <-r.pp.out
	for _, ds := range r.p.dimStates {
		ds.filterBatch(b)
	}
	survivors := len(b.sel)
	r.dist.process(b) // routes, then returns the batch to the pool
	return survivors
}

// BenchmarkEmitPage measures the per-page cost of everything between the
// page read and the aggregation operators: one SSB-width page (53 rows
// of 19 columns) through emitPage, four Filters and route. Throughput is
// in tuples (1 "byte" = 1 fact tuple).
func BenchmarkEmitPage(b *testing.B) {
	r := newEmitRig(b)
	if r.page() == 0 {
		b.Fatal("no tuple survives the Filters: route is not exercised")
	}
	b.ReportAllocs()
	b.SetBytes(int64(r.n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.page()
	}
}

// TestEmitPageAllocatesNothing pins the point of the flat batch (§4: a
// preallocated structure for every in-flight tuple): once the
// aggregation groups exist, a page flows from emitPage to route without
// a single allocation.
func TestEmitPageAllocatesNothing(t *testing.T) {
	r := newEmitRig(t)
	if r.page() == 0 {
		t.Fatal("no tuple survives the Filters: route is not exercised")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.page() }); allocs != 0 {
		t.Fatalf("%v allocations per page, want 0", allocs)
	}
}
