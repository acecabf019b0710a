package storage

import (
	"math/rand"
	"sync"
	"testing"

	"cjoin/internal/disk"
)

// TestZoneMapBoundsExact verifies that every flushed page's synopsis is
// the exact min/max of the rows it holds.
func TestZoneMapBoundsExact(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 3)
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		row := []int64{rng.Int63n(1000) - 500, int64(i), rng.Int63n(5)}
		rows = append(rows, row)
		h.Append(row)
	}
	rpp := h.RowsPerPage()
	for page := 0; page < h.FlushedPages(); page++ {
		for col := 0; col < 3; col++ {
			wantMin, wantMax := rows[page*rpp][col], rows[page*rpp][col]
			for _, row := range rows[page*rpp : (page+1)*rpp] {
				if row[col] < wantMin {
					wantMin = row[col]
				}
				if row[col] > wantMax {
					wantMax = row[col]
				}
			}
			min, max, ok := h.PageColBounds(page, col)
			if !ok || min != wantMin || max != wantMax {
				t.Fatalf("page %d col %d: bounds [%d,%d] ok=%v, want [%d,%d]",
					page, col, min, max, ok, wantMin, wantMax)
			}
		}
	}
}

// TestZoneMapTailConservative pins the tail-page contract: the mutable
// in-memory tail has no published bounds (ok=false), as do pages that do
// not exist and out-of-range columns.
func TestZoneMapTailConservative(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for i := int64(0); i < int64(h.RowsPerPage())+5; i++ {
		h.Append([]int64{i, -i})
	}
	if h.FlushedPages() != 1 || h.NumPages() != 2 {
		t.Fatalf("layout: %d flushed, %d total", h.FlushedPages(), h.NumPages())
	}
	if _, _, ok := h.PageColBounds(0, 0); !ok {
		t.Fatal("flushed page has no bounds")
	}
	if _, _, ok := h.PageColBounds(1, 0); ok {
		t.Fatal("tail page published bounds; readers would prune unflushed rows")
	}
	if _, _, ok := h.PageColBounds(2, 0); ok {
		t.Fatal("nonexistent page published bounds")
	}
	if _, _, ok := h.PageColBounds(0, 9); ok {
		t.Fatal("out-of-range column published bounds")
	}
}

// TestZoneMapUpdateColWidens verifies in-place updates keep the synopsis
// sound by widening: an update outside the page's current bounds extends
// them; bounds never shrink (stale-but-wide is conservative, not wrong).
func TestZoneMapUpdateColWidens(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	rpp := h.RowsPerPage()
	for i := 0; i < 2*rpp+3; i++ {
		h.Append([]int64{100, 200})
	}

	// Widen a flushed page down and up.
	if err := h.UpdateCol(1, 0, -7); err != nil {
		t.Fatal(err)
	}
	if err := h.UpdateCol(2, 0, 999); err != nil {
		t.Fatal(err)
	}
	min, max, ok := h.PageColBounds(0, 0)
	if !ok || min != -7 || max != 999 {
		t.Fatalf("page 0 bounds [%d,%d] ok=%v after updates, want [-7,999]", min, max, ok)
	}
	// An update inside the current bounds must not shrink them: the row
	// written at -7 still exists from the synopsis's point of view.
	if err := h.UpdateCol(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if min, _, _ := h.PageColBounds(0, 0); min != -7 {
		t.Fatalf("page 0 min %d after inside-bounds update, want -7 (widen-only)", min)
	}
	// Untouched page keeps its exact bounds.
	if min, max, _ := h.PageColBounds(1, 0); min != 100 || max != 100 {
		t.Fatalf("page 1 bounds [%d,%d], want [100,100]", min, max)
	}

	// Tail updates fold into the pending synopsis, surfaced at flush.
	if err := h.UpdateCol(int64(2*rpp), 1, -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rpp-3; i++ {
		h.Append([]int64{100, 200})
	}
	if h.FlushedPages() != 3 {
		t.Fatalf("%d flushed pages, want 3", h.FlushedPages())
	}
	if min, max, _ := h.PageColBounds(2, 1); min != -1 || max != 200 {
		t.Fatalf("flushed tail bounds [%d,%d], want [-1,200]", min, max)
	}
}

// TestColBounds verifies the bulk accessor agrees with PageColBounds and
// rejects bad columns.
func TestColBounds(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for i := int64(0); i < 3000; i++ {
		h.Append([]int64{i, i % 11})
	}
	for col := 0; col < 2; col++ {
		bs, err := h.ColBounds(col)
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) != h.FlushedPages() {
			t.Fatalf("col %d: %d entries, %d flushed pages", col, len(bs), h.FlushedPages())
		}
		for p, b := range bs {
			min, max, ok := h.PageColBounds(p, col)
			if !ok || b.Min != min || b.Max != max {
				t.Fatalf("col %d page %d: ColBounds [%d,%d] vs PageColBounds [%d,%d] ok=%v",
					col, p, b.Min, b.Max, min, max, ok)
			}
		}
	}
	if _, err := h.ColBounds(5); err == nil {
		t.Fatal("ColBounds(5) on a 2-column heap succeeded")
	}
}

// TestBulkBoundsMatchPerCell pins the bulk face against the per-cell one
// on a settled heap: ColBoundsRun carries PageColBounds' values for
// every (first, stride), stops at the tail, and AllPagesIntersect is true
// exactly when no flushed page is disjoint — until a widening leaves its
// scalars stale, after which it may only err towards false.
func TestBulkBoundsMatchPerCell(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 9*h.RowsPerPage()+4; i++ {
		h.Append([]int64{int64(i / 10), rng.Int63n(100), 5})
	}
	flushed := h.FlushedPages()
	for col := 0; col < 3; col++ {
		for first := 0; first <= flushed; first++ {
			for stride := 1; stride <= 3; stride++ {
				dst := make([]int64, 2*(flushed+2))
				n := h.ColBoundsRun(col, first, stride, dst)
				if want := (flushed - first + stride - 1) / stride; n != want {
					t.Fatalf("col %d first %d stride %d: filled %d pages, %d are flushed on that run", col, first, stride, n, want)
				}
				for i := 0; i < n; i++ {
					min, max, _ := h.PageColBounds(first+i*stride, col)
					if dst[2*i] != min || dst[2*i+1] != max {
						t.Fatalf("col %d page %d: run [%d,%d], cell [%d,%d]", col, first+i*stride, dst[2*i], dst[2*i+1], min, max)
					}
				}
			}
		}
		if n := h.ColBoundsRun(col, 0, 1, make([]int64, 6)); n != 3 {
			t.Fatalf("a 3-pair buffer was filled with %d pages", n)
		}
	}
	if n := h.ColBoundsRun(7, 0, 1, make([]int64, 8)); n != 0 {
		t.Fatalf("unknown column filled %d pages", n)
	}

	allIntersect := func(col int, lo, hi int64) bool {
		for p := 0; p < flushed; p++ {
			if min, max, _ := h.PageColBounds(p, col); max < lo || min > hi {
				return false
			}
		}
		return true
	}
	probe := func(exact bool) {
		t.Helper()
		for trial := 0; trial < 300; trial++ {
			col := rng.Intn(3)
			lo := rng.Int63n(120) - 10
			hi := lo + rng.Int63n(120)
			got, want := h.AllPagesIntersect(col, lo, hi), allIntersect(col, lo, hi)
			if got && !want || exact && got != want {
				t.Fatalf("col %d [%d,%d]: AllPagesIntersect=%v, per-cell says %v (exact=%v)", col, lo, hi, got, want, exact)
			}
		}
	}
	probe(true)
	if !h.AllPagesIntersect(7, 1, 0) {
		t.Fatal("an unknown column must never prune")
	}

	// Widen page 0 so that every page now reaches 50 on column 0: the
	// true answer for [45,50] flips to "all intersect", the stale scalars
	// may keep saying false, and must never say true where a page is
	// disjoint.
	v0 := h.BoundsVersion()
	for p := 0; p < flushed; p++ {
		if err := h.UpdateCol(int64(p*h.RowsPerPage()), 0, 50); err != nil {
			t.Fatal(err)
		}
	}
	if h.BoundsVersion() == v0 {
		t.Fatal("widening flushed pages did not advance the bounds version")
	}
	probe(false)
}

// TestBulkBoundsUnderWriter reads the bulk face from several goroutines
// while a writer flushes pages and widens bounds (run under -race). A
// read bracketed by two equal BoundsVersion readings saw one synopsis,
// so there it must agree with the per-cell face exactly.
func TestBulkBoundsUnderWriter(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for i := 0; i < 3*h.RowsPerPage(); i++ {
		h.Append([]int64{int64(i), 1})
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(9))
		for i := int64(3 * h.RowsPerPage()); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Append([]int64{i, 1})
			if i%64 == 0 {
				if err := h.UpdateCol(rng.Int63n(i), 1, rng.Int63n(9)-4); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checked := 0
			dst := make([]int64, 2*64)
			for iter := 0; iter < 200000 && checked < 200; iter++ {
				col, first, stride := iter%2, iter%5, 1+g
				v := h.BoundsVersion()
				n := h.ColBoundsRun(col, first, stride, dst)
				// Every page of column 1 holds a 1 (widening only widens);
				// on column 0 only page 0 does.
				all := h.AllPagesIntersect(col, 1, 1)
				type cell struct{ min, max int64 }
				cells := make([]cell, n)
				disjoint := false
				for i := range cells {
					cells[i].min, cells[i].max, _ = h.PageColBounds(first+i*stride, col)
				}
				for p := 0; p < h.FlushedPages(); p++ {
					if min, max, ok := h.PageColBounds(p, col); ok && (max < 1 || min > 1) {
						disjoint = true
					}
				}
				if h.BoundsVersion() != v {
					continue // the synopsis moved under this read
				}
				checked++
				for i, c := range cells {
					if dst[2*i] != c.min || dst[2*i+1] != c.max {
						t.Errorf("col %d page %d: run [%d,%d], cell [%d,%d] at one version", col, first+i*stride, dst[2*i], dst[2*i+1], c.min, c.max)
						return
					}
				}
				if all == disjoint {
					t.Errorf("col %d: AllPagesIntersect(1,1)=%v, a page is disjoint=%v at one version", col, all, disjoint)
					return
				}
			}
			if checked == 0 {
				t.Errorf("reader %d never got a stable read", g)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-done
}
