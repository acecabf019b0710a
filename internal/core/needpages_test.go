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
// discarded (nil) when nothing was pruned or the partition is not
// needed at all.
func refNeedPages(s *factScan, rq *runningQuery, needParts []bool, cell cellBounds) [][]bool {
	np := make([][]bool, len(s.parts))
	if rq.pruneEmpty {
		return np
	}
	for li := range s.parts {
		if s.parts[li].bounds == nil {
			continue
		}
		if needParts != nil && !needParts[s.globalOf(li)] {
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
		if pruned {
			np[li] = bits
		}
	}
	return np
}

// checkNeedPages compares needPagesFor's sets with the reference: the
// bitmap bit for bit, the frozen page count, the §5 verdict, and needed
// as the count of pages the set charges.
func checkNeedPages(t *testing.T, ctx string, s *factScan, rq *runningQuery, needParts []bool, cell cellBounds) (sawBitmap bool) {
	t.Helper()
	want := refNeedPages(s, rq, needParts, cell)
	got := s.needPagesFor(rq, needParts)
	rq.needPages = got
	if len(got) != len(s.parts) {
		t.Fatalf("%s: %d page sets for %d partitions", ctx, len(got), len(s.parts))
	}
	for li, ps := range got {
		if fmt.Sprint(ps.bits) != fmt.Sprint(want[li]) || (ps.bits == nil) != (want[li] == nil) {
			t.Fatalf("%s: ranges %+v partition %d:\n got %v\nwant %v", ctx, rq.pruneRanges, li, ps.bits, want[li])
		}
		n := s.pagesInPart(li)
		pruned := needParts != nil && !needParts[s.globalOf(li)]
		if ps.frozen != n || ps.partPruned != pruned {
			t.Fatalf("%s: partition %d: frozen=%d partPruned=%v, want %d, %v", ctx, li, ps.frozen, ps.partPruned, n, pruned)
		}
		var k int64
		for pg := 0; pg < n; pg++ {
			if rq.pageNeeded(li, pg) {
				k++
			}
		}
		if want[li] == nil && !pruned && !rq.pruneEmpty && k != int64(n) {
			t.Fatalf("%s: partition %d: no bitmap, yet %d of %d pages charged", ctx, li, k, n)
		}
		if ps.needed != k {
			t.Fatalf("%s: partition %d: needed=%d, the set charges %d", ctx, li, ps.needed, k)
		}
		if want[li] != nil {
			sawBitmap = true
		}
	}
	return sawBitmap
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

func (v stridedView) ClearDisjoint(col, first, stride int, lo, hi int64, keep []bool) int {
	return v.HeapFile.ClearDisjoint(col, v.off+first*v.stride, stride*v.stride, lo, hi, keep)
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
// bulk zone-map build: over randomized heaps — empty, tail-only, whole
// pages only or with a partial tail page, widened after flush — and over
// the plain and strided views of each, needPagesFor yields exactly the
// bitmap the per-cell reference does for every kind of range.
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
				if checkNeedPages(t, ctx, s, rq, nil, cell) {
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
// with and without a partition-level needParts input: the sets are
// indexed by scan-local partition while needParts stays star-global.
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
			var needParts []bool
			if k%2 == 0 {
				needParts = make([]bool, len(parts))
				for g, p := range parts {
					needParts[g] = ds.DateKeys[hi] >= p.MinKey && ds.DateKeys[lo] <= p.MaxKey
				}
			}
			if checkNeedPages(t, fmt.Sprintf("subset %v draw %d", subset, k), s, rq, needParts, cell) {
				bitmaps++
			}
		}
	}
	if bitmaps < 40 {
		t.Fatalf("only %d draws produced a bitmap", bitmaps)
	}
}

// TestNeedPagesForAllocs pins what one cut allocates on a heap with a
// partial tail page: the page sets and, for ranges that prune, one
// bitmap — nothing per range column, per page or per synopsis read.
func TestNeedPagesForAllocs(t *testing.T) {
	h := storage.CreateHeap(disk.NewMem(), 4)
	rows := int64(600*h.RowsPerPage() + h.RowsPerPage()/3)
	for i := int64(0); i < rows; i++ {
		h.Append([]int64{i, i % 977, 7, rows - i})
	}
	s := newFactScan(nil, h, nil, nil)
	for _, tc := range []struct {
		name   string
		ranges []expr.Range
		pruned bool
		allocs float64
	}{
		{"two pruning windows", []expr.Range{colRange(0, rows/2, rows/2+rows/20), colRange(3, 0, rows/2)}, true, 2},
		{"nonpruning", []expr.Range{colRange(0, math.MinInt64, math.MaxInt64), colRange(1, 0, 1000)}, false, 1},
	} {
		rq := &runningQuery{pruneRanges: tc.ranges}
		if ps := s.needPagesFor(rq, nil)[0]; (ps.bits != nil) != tc.pruned {
			t.Fatalf("%s: bitmap %v, want pruned=%v", tc.name, ps.bits != nil, tc.pruned)
		}
		if got := testing.AllocsPerRun(20, func() { benchNeed = s.needPagesFor(rq, nil) }); got != tc.allocs {
			t.Fatalf("%s: one cut made %v allocations, want %v", tc.name, got, tc.allocs)
		}
	}
}

// cutHookSource runs a hook at the end of a query's cut on the
// submitter's goroutine — right after the zone-map build has cleared a
// range's disjoint pages, or after an "every page intersects" answer
// that needs no pass — i.e. between the moment the page set is frozen
// and the query's registration with the Preprocessor.
type cutHookSource struct {
	*storage.HeapFile
	afterCut func()
}

func (s *cutHookSource) fire() {
	if f := s.afterCut; f != nil {
		s.afterCut = nil
		f()
	}
}

func (s *cutHookSource) AllPagesIntersect(col int, lo, hi int64) bool {
	all := s.HeapFile.AllPagesIntersect(col, lo, hi)
	if all {
		s.fire()
	}
	return all
}

func (s *cutHookSource) ClearDisjoint(col, first, stride int, lo, hi int64, keep []bool) int {
	n := s.HeapFile.ClearDisjoint(col, first, stride, lo, hi, keep)
	s.fire()
	return n
}

// TestPagesAppendedAfterCutAreNotRead pins the reconciliation rule for a
// heap that grows (and has a page widened) after a query's page set was
// cut but before the Preprocessor registered it: the new pages lie
// beyond the set, and with no other query resident they lie beyond
// every resident set, so the scan skips them — their rows are invisible
// to the query's snapshot. The scan reads, and the countdown charges,
// exactly the pages the set kept, and the answer is still exact. It
// holds for a query whose zone-map bitmap prunes and for one that
// prunes nothing (no bitmap: every page present at the cut).
func TestPagesAppendedAfterCutAreNotRead(t *testing.T) {
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

	nk := len(ds.DateKeys)
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name   string
		lo, hi int
		pruned bool
	}{
		// Early dates: the cycle runs from the parked cursor over the
		// (pruned) rest of the heap, the appended pages, the wrap, and
		// only then the query's own pages.
		{"bitmap", 0, nk / 20, true},
		// Every date: nothing to prune, so the set is every page present
		// at the cut, from the parked cursor round to it again.
		{"no bitmap", 0, nk - 1, false},
	} {
		// Park the scan in the middle of the heap: a countdown query over
		// a late date window leaves the cursor just past its last needed
		// page.
		run(window(nk/2, nk/2+nk/20))

		pagesAtCut := heap.NumPages()
		src.afterCut = func() {
			if _, err := ds.AppendFact(2*heap.RowsPerPage()+3, rng); err != nil {
				t.Error(err)
			}
			// Widen a page present at the cut (the last flushed one).
			if _, err := ds.DeleteFact(int64(pagesAtCut-2) * int64(heap.RowsPerPage())); err != nil {
				t.Error(err)
			}
		}
		before := p.Stats()
		h := run(window(tc.lo, tc.hi))
		after := p.Stats()

		appended := int64(heap.NumPages() - pagesAtCut)
		if appended < 2 {
			t.Fatalf("%s: hook appended %d pages; the cut→register window was not exercised", tc.name, appended)
		}
		ps := h.rq.needPages[0]
		if ps.frozen != pagesAtCut {
			t.Fatalf("%s: set frozen at %d pages, heap had %d when it was cut", tc.name, ps.frozen, pagesAtCut)
		}
		if tc.pruned {
			if len(ps.bits) != pagesAtCut {
				t.Fatalf("%s: bitmap covers %d pages, heap had %d when it was cut", tc.name, len(ps.bits), pagesAtCut)
			}
			if ps.needed >= int64(pagesAtCut)/2 {
				t.Fatalf("%s: window kept %d of %d pages; the test needs a pruning query", tc.name, ps.needed, pagesAtCut)
			}
		} else if ps.bits != nil || ps.needed != int64(pagesAtCut) {
			t.Fatalf("%s: set keeps %d of %d pages (bitmap %v); the test needs a query that prunes nothing",
				tc.name, ps.needed, pagesAtCut, ps.bits != nil)
		}
		if got := h.PagesScanned(); got != ps.needed {
			t.Fatalf("%s: charged %d pages, the set kept %d (appended pages must not be charged)", tc.name, got, ps.needed)
		}
		if read := after.PagesRead - before.PagesRead; read != ps.needed {
			t.Fatalf("%s: scan read %d pages, want the %d needed (the %d appended after the cut are in no set)", tc.name, read, ps.needed, appended)
		}
		if skipped := after.PagesSkippedZonemap - before.PagesSkippedZonemap; skipped < appended {
			t.Fatalf("%s: scan skipped %d pages, fewer than the %d appended after the cut", tc.name, skipped, appended)
		}
		if pruned := after.PagesPrunedZonemap - before.PagesPrunedZonemap; pruned != int64(pagesAtCut)-ps.needed {
			t.Fatalf("%s: pruned counter moved by %d, want %d", tc.name, pruned, int64(pagesAtCut)-ps.needed)
		}
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
					benchNeed = s.needPagesFor(rq, nil)
				}
			})
			// The per-cell reference on the same input: what the build
			// cost when it ran on the scan thread.
			cell := func(_, pg, col int) (int64, int64, bool) { return h.PageColBounds(pg, col) }
			b.Run(fmt.Sprintf("%s/pages=%d/percell", bc.name, pages), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchRef = refNeedPages(s, rq, nil, cell)
				}
			})
		}
	}
}

// colRange is an expr.Range literal in the tests' positional shorthand.
func colRange(col int, lo, hi int64) expr.Range { return expr.Range{Col: col, Min: lo, Max: hi} }
