package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cjoin/internal/disk"
	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

// cellBounds answers the synopsis of one (scan-local partition, page,
// column) cell — the per-cell face BoundsSource had before the bulk one.
type cellBounds func(part, page, col int) (min, max int64, ok bool)

// refNeedPages is the per-cell reference needPagesFor must match bit for
// bit: one cell lookup per (page × range column), a page dropped as soon
// as one synopsis is disjoint from its range, a partition's bitmap
// discarded when nothing was pruned.
func refNeedPages(s *factScan, rq *runningQuery, cell cellBounds) [][]bool {
	if rq.pruneEmpty || len(rq.pruneRanges) == 0 {
		return nil
	}
	var np [][]bool
	for li := range s.parts {
		if s.parts[li].bounds == nil {
			continue
		}
		if s.static && !rq.needsPart(s.globalOf(li)) {
			continue
		}
		n := s.pagesInPart(li)
		bits := make([]bool, n)
		pruned := false
		for pg := 0; pg < n; pg++ {
			bits[pg] = true
			for _, r := range rq.pruneRanges {
				if lo, hi, ok := cell(li, pg, r.Col); ok && (hi < r.Min || lo > r.Max) {
					bits[pg] = false
					pruned = true
					break
				}
			}
		}
		if !pruned {
			continue
		}
		if np == nil {
			np = make([][]bool, len(s.parts))
		}
		np[li] = bits
	}
	return np
}

func checkNeedPages(t *testing.T, ctx string, s *factScan, rq *runningQuery, cell cellBounds) (sawBitmap bool) {
	t.Helper()
	want := refNeedPages(s, rq, cell)
	got := s.needPagesFor(rq)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: ranges %+v: bitmap nil=%v, reference nil=%v", ctx, rq.pruneRanges, got == nil, want == nil)
	}
	for li := range want {
		if fmt.Sprint(got[li].bits) != fmt.Sprint(want[li]) {
			t.Fatalf("%s: ranges %+v partition %d:\n got %v\nwant %v", ctx, rq.pruneRanges, li, got[li].bits, want[li])
		}
		var k int64
		for _, b := range want[li] {
			if b {
				k++
			}
		}
		if got[li].needed != k {
			t.Fatalf("%s: partition %d: needed=%d, bitmap has %d set", ctx, li, got[li].needed, k)
		}
	}
	return want != nil
}

// stridedView is one shard's view of a heap (pages off, off+stride, …)
// with the zone-map face mapped through the stride, as
// shard.stridedSource does it.
type stridedView struct {
	*storage.HeapFile
	off, stride int
}

func (v stridedView) NumPages() int {
	n := v.HeapFile.NumPages()
	if n <= v.off {
		return 0
	}
	return (n - v.off + v.stride - 1) / v.stride
}

func (v stridedView) ColBoundsRun(col, first, stride int, dst []int64) int {
	return v.HeapFile.ColBoundsRun(col, v.off+first*v.stride, stride*v.stride, dst)
}

// randomHeap builds a heap whose columns cover the synopsis shapes that
// matter: 0 clustered ascending (windows prune), 1 uniform noise (every
// page spans everything), 2 constant, 3 clustered descending. Then it
// widens random cells through UpdateCol, leaving the per-column summary
// scalars stale.
func randomHeap(rng *rand.Rand, rows int) *storage.HeapFile {
	h := storage.CreateHeap(disk.NewMem(), 4)
	for i := 0; i < rows; i++ {
		h.Append([]int64{int64(i / 7), rng.Int63n(1000), 7, int64(rows - i)})
	}
	for k := rng.Intn(12); k > 0 && rows > 0; k-- {
		v := rng.Int63n(4*int64(rows)+1) - 2*int64(rows)
		if err := h.UpdateCol(rng.Int63n(int64(rows)), rng.Intn(4), v); err != nil {
			panic(err)
		}
	}
	return h
}

// randomRanges draws 1–3 constraints: narrow windows, open and covering
// ranges (the summary must reject them), points on the constant column,
// ranges outside all data, contradictory bounds, unknown columns.
func randomRanges(rng *rand.Rand, rows int) []expr.Range {
	span := int64(rows/7 + 1)
	var rs []expr.Range
	for k := rng.Intn(3) + 1; k > 0; k-- {
		switch rng.Intn(9) {
		case 0: // 5 % window on the ascending column
			lo := rng.Int63n(span)
			rs = append(rs, colRange(0, lo, lo+span/20))
		case 1: // open range: prunes nothing
			rs = append(rs, colRange(0, math.MinInt64, math.MaxInt64))
		case 2: // covers every noise value: "all intersect"
			rs = append(rs, colRange(1, 0, 1000))
		case 3: // narrow on noise: rarely prunes a full page
			lo := rng.Int63n(1000)
			rs = append(rs, colRange(1, lo, lo+3))
		case 4: // the constant column's value, or its neighbour
			v := int64(7 + rng.Intn(2))
			rs = append(rs, colRange(2, v, v))
		case 5: // window on the descending column
			lo := rng.Int63n(int64(rows) + 1)
			rs = append(rs, colRange(3, lo, lo+int64(rows)/10))
		case 6: // beyond all data: every frozen page is disjoint
			rs = append(rs, colRange(0, 10*span, 20*span))
		case 7: // contradictory (pruneRanges would have said pruneEmpty)
			rs = append(rs, colRange(0, span/2, span/2-3))
		case 8: // a column the source does not have
			rs = append(rs, colRange(9, 0, 0))
		}
	}
	return rs
}

// TestNeedPagesMatchPerCellReference is the equivalence property of the
// bulk zone-map build: over randomized heaps — empty, tail-only, with and
// without a synopsis-less tail page, widened after flush — and over the
// plain and strided views of each, needPagesFor yields exactly the bitmap
// the per-cell reference does for every kind of range.
func TestNeedPagesMatchPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rpp := storage.CreateHeap(disk.NewMem(), 4).RowsPerPage()
	sizes := []int{0, 5, rpp, 3 * rpp, 3*rpp + 1, 40*rpp + 17, 90 * rpp}
	bitmaps := 0
	for trial := 0; trial < 60; trial++ {
		rows := sizes[trial%len(sizes)]
		h := randomHeap(rng, rows)
		type view struct {
			src         PageSource
			off, stride int
		}
		views := []view{{h, 0, 1}}
		for _, st := range []int{2, 3} {
			for off := 0; off < st; off++ {
				views = append(views, view{stridedView{h, off, st}, off, st})
			}
		}
		for _, v := range views {
			s := newFactScan(nil, v.src, nil, nil)
			cell := func(_, pg, col int) (int64, int64, bool) {
				return h.PageColBounds(v.off+pg*v.stride, col)
			}
			for k := 0; k < 12; k++ {
				rq := &runningQuery{pruneRanges: randomRanges(rng, rows)}
				ctx := fmt.Sprintf("trial %d rows %d view %d/%d", trial, rows, v.off, v.stride)
				if checkNeedPages(t, ctx, s, rq, cell) {
					bitmaps++
				}
			}
		}
	}
	if bitmaps < 100 {
		t.Fatalf("only %d of the draws produced a bitmap; the property was barely exercised", bitmaps)
	}
}

// TestNeedPagesPartitionDealt runs the same equivalence over a
// range-partitioned star scanned whole and as partition-dealt subsets,
// with and without a partition-level needParts: the bitmap is indexed by
// scan-local partition while needParts stays star-global.
func TestNeedPagesPartitionDealt(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 6000, Seed: 19, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	parts := ds.Star.Partitions()
	rng := rand.New(rand.NewSource(43))
	bitmaps := 0
	for _, subset := range [][]int{nil, {1, 3}, {2}, {3, 0}} {
		s := newFactScan(ds.Star, nil, subset, nil)
		cell := func(li, pg, col int) (int64, int64, bool) {
			return parts[s.globalOf(li)].Heap.PageColBounds(pg, col)
		}
		for k := 0; k < 40; k++ {
			lo := rng.Intn(len(ds.DateKeys))
			hi := min(lo+rng.Intn(len(ds.DateKeys)/10+1), len(ds.DateKeys)-1)
			rq := &runningQuery{pruneRanges: []expr.Range{colRange(ssb.LoOrderdate, ds.DateKeys[lo], ds.DateKeys[hi])}}
			if k%3 == 0 {
				rq.pruneRanges = append(rq.pruneRanges, colRange(ssb.LoRevenue, 0, math.MaxInt64))
			}
			if k%2 == 0 {
				rq.needParts = make([]bool, len(parts))
				for g, p := range parts {
					rq.needParts[g] = ds.DateKeys[hi] >= p.MinKey && ds.DateKeys[lo] <= p.MaxKey
				}
			}
			if checkNeedPages(t, fmt.Sprintf("subset %v draw %d", subset, k), s, rq, cell) {
				bitmaps++
			}
		}
	}
	if bitmaps < 40 {
		t.Fatalf("only %d draws produced a bitmap", bitmaps)
	}
}

// cutHookSource runs a hook right after the zone-map build has read a
// column run — i.e. between the moment a query's bitmap is cut on the
// submitter's goroutine and its registration with the Preprocessor.
type cutHookSource struct {
	*storage.HeapFile
	afterCut func()
}

func (s *cutHookSource) ColBoundsRun(col, first, stride int, dst []int64) int {
	n := s.HeapFile.ColBoundsRun(col, first, stride, dst)
	if s.afterCut != nil {
		s.afterCut()
	}
	return n
}

// TestPagesAppendedAfterCutAreReadNotCharged pins the reconciliation
// rule for a heap that grows (and has a pruned page widened) after a
// query's bitmap was cut but before the Preprocessor registered it: the
// new pages lie beyond the bitmap, so the scan reads them — they may
// hold rows of other snapshots — but the query's countdown charges
// exactly the pages its bitmap kept, and its answer is still exact.
func TestPagesAppendedAfterCutAreReadNotCharged(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	heap := ds.Lineorder.Heap
	src := &cutHookSource{HeapFile: heap}
	p := NewTestPipeline(t, ds.Star, Config{MaxConcurrent: 4, Workers: 2, FactSource: src}, ShardConfig{})
	p.Start()

	window := func(lo, hi int) *query.Bound {
		t.Helper()
		q, err := query.ParseBind(fmt.Sprintf(
			"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
			ds.DateKeys[lo], ds.DateKeys[hi]), ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		q.Snapshot = ds.Txn.Begin()
		return q
	}
	run := func(q *query.Bound) *TestQuery {
		t.Helper()
		h, err := p.Admit(q)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("diverges from reference at snapshot %d", q.Snapshot)
		}
		<-h.Done()
		return h
	}

	// Park the scan in the middle of the heap: a countdown query over a
	// late date window leaves the cursor just past its last needed page.
	nk := len(ds.DateKeys)
	run(window(nk/2, nk/2+nk/20))

	// The query under test wants early dates, so its cycle runs from the
	// parked cursor over the (pruned) rest of the heap, the appended
	// pages, the wrap, and only then its own pages.
	pagesAtCut := heap.NumPages()
	rng := rand.New(rand.NewSource(5))
	src.afterCut = func() {
		src.afterCut = nil
		if _, err := ds.AppendFact(2*heap.RowsPerPage()+3, rng); err != nil {
			t.Error(err)
		}
		// Widen a page the bitmap pruned (the last flushed one at cut).
		if _, err := ds.DeleteFact(int64(pagesAtCut-2) * int64(heap.RowsPerPage())); err != nil {
			t.Error(err)
		}
	}
	before := p.Stats()
	h := run(window(0, nk/20))
	after := p.Stats()

	appended := int64(heap.NumPages() - pagesAtCut)
	if appended < 2 {
		t.Fatalf("hook appended %d pages; the cut→register window was not exercised", appended)
	}
	ps := h.rq.needPages[0]
	if len(ps.bits) != pagesAtCut {
		t.Fatalf("bitmap covers %d pages, heap had %d when it was cut", len(ps.bits), pagesAtCut)
	}
	if ps.needed >= int64(pagesAtCut)/2 {
		t.Fatalf("window kept %d of %d pages; the test needs a pruning query", ps.needed, pagesAtCut)
	}
	if got := h.PagesScanned(); got != ps.needed {
		t.Fatalf("charged %d pages, bitmap kept %d (appended pages must not be charged)", got, ps.needed)
	}
	if read := after.PagesRead - before.PagesRead; read != ps.needed+appended {
		t.Fatalf("scan read %d pages, want the %d needed + the %d appended after the cut", read, ps.needed, appended)
	}
	if pruned := after.PagesPrunedZonemap - before.PagesPrunedZonemap; pruned != int64(pagesAtCut)-ps.needed {
		t.Fatalf("pruned counter moved by %d, want %d", pruned, int64(pagesAtCut)-ps.needed)
	}
}

// TestDeliveredHandleRetainsNoAggregator: a handle is kept long after
// its query finished (the server tracks finished queries); the
// aggregation hash table behind the delivered rows must be released.
func TestDeliveredHandleRetainsNoAggregator(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := NewTestPipeline(t, ds.Star, Config{MaxConcurrent: 4}, ShardConfig{})
	p.Start()
	q, err := query.ParseBind("SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Admit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil || len(res.Rows) == 0 {
		t.Fatalf("query failed or empty: %v", res.Err)
	}
	if h.rq.aggr != nil {
		t.Fatal("delivered query still holds its aggregator")
	}
}

var (
	benchNeed []pageSet
	benchRef  [][]bool
)

// BenchmarkBuildNeedPages prices the admission-time zone-map build for a
// range that prunes nothing (the shared-scan regime: answered from the
// per-column summary) and for a 5 % window, at two heap sizes.
func BenchmarkBuildNeedPages(b *testing.B) {
	for _, pages := range []int{2000, 20000} {
		h := storage.CreateHeap(disk.NewMem(), 4)
		rows := pages * h.RowsPerPage()
		for i := 0; i < rows; i++ {
			h.Append([]int64{int64(i), int64(i % 977), 7, int64(rows - i)})
		}
		s := newFactScan(nil, h, nil, nil)
		for _, bc := range []struct {
			name string
			r    expr.Range
		}{
			{"nonpruning", colRange(0, math.MinInt64, math.MaxInt64)},
			{"window5pct", colRange(0, int64(rows/2), int64(rows/2+rows/20))},
		} {
			rq := &runningQuery{pruneRanges: []expr.Range{bc.r, colRange(1, 0, 1000)}}
			b.Run(fmt.Sprintf("%s/pages=%d", bc.name, pages), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchNeed = s.needPagesFor(rq)
				}
			})
			// The per-cell reference on the same input: what the build
			// cost when it ran on the scan thread.
			cell := func(_, pg, col int) (int64, int64, bool) { return h.PageColBounds(pg, col) }
			b.Run(fmt.Sprintf("%s/pages=%d/percell", bc.name, pages), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchRef = refNeedPages(s, rq, cell)
				}
			})
		}
	}
}

// colRange is an expr.Range literal in the tests' positional shorthand.
func colRange(col int, lo, hi int64) expr.Range { return expr.Range{Col: col, Min: lo, Max: hi} }
