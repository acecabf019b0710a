package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cjoin/internal/disk"
)

// checkBoundsExact verifies that every page's synopsis, the partial tail
// page's included, is the exact min/max of the rows it holds.
func checkBoundsExact(t *testing.T, ctx string, h *HeapFile, rows [][]int64) {
	t.Helper()
	rpp := h.RowsPerPage()
	if want := (len(rows) + rpp - 1) / rpp; h.NumPages() != want {
		t.Fatalf("%s: %d pages for %d rows", ctx, h.NumPages(), len(rows))
	}
	for page := 0; page < h.NumPages(); page++ {
		held := rows[page*rpp : min((page+1)*rpp, len(rows))]
		for col := range rows[0] {
			wantMin, wantMax := held[0][col], held[0][col]
			for _, row := range held {
				wantMin, wantMax = min(wantMin, row[col]), max(wantMax, row[col])
			}
			lo, hi, ok := h.PageColBounds(page, col)
			if !ok || lo != wantMin || hi != wantMax {
				t.Fatalf("%s: page %d col %d: bounds [%d,%d] ok=%v, want [%d,%d]",
					ctx, page, col, lo, hi, ok, wantMin, wantMax)
			}
		}
	}
}

// TestZoneMapBoundsExact verifies that every page's synopsis is the exact
// min/max of the rows it holds: with a partial tail page, after that tail
// flushes, and after an UpdateCol on the tail that moves a value past its
// bounds.
func TestZoneMapBoundsExact(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 3)
	rng := rand.New(rand.NewSource(7))
	var rows [][]int64
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			row := []int64{rng.Int63n(1000) - 500, int64(len(rows)), rng.Int63n(5)}
			rows = append(rows, row)
			h.Append(row)
		}
	}
	appendN(4000)
	if h.FlushedPages() == h.NumPages() {
		t.Fatal("the heap has no partial tail page")
	}
	checkBoundsExact(t, "partial tail", h, rows)

	tail := int64(h.FlushedPages() * h.RowsPerPage())
	for _, v := range []int64{-9000, 9000} {
		idx := tail + rng.Int63n(int64(len(rows))-tail)
		if err := h.UpdateCol(idx, 0, v); err != nil {
			t.Fatal(err)
		}
		rows[idx][0] = v
		checkBoundsExact(t, fmt.Sprintf("tail row %d set to %d", idx, v), h, rows)
	}

	appendN(h.RowsPerPage() - len(rows)%h.RowsPerPage())
	if h.FlushedPages() != h.NumPages() {
		t.Fatal("the tail did not flush")
	}
	checkBoundsExact(t, "tail flushed", h, rows)
	appendN(1)
	checkBoundsExact(t, "one-row tail", h, rows)
}

// TestZoneMapTailExact pins the tail-page contract: the in-memory tail
// publishes exact bounds from its first row on, and pages that do not
// exist and out-of-range columns publish none (ok=false).
func TestZoneMapTailExact(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	if _, _, ok := h.PageColBounds(0, 0); ok {
		t.Fatal("an empty heap published bounds")
	}
	rpp := int64(h.RowsPerPage())
	for i := int64(0); i < rpp; i++ {
		h.Append([]int64{i, -i})
	}
	if _, _, ok := h.PageColBounds(1, 0); ok {
		t.Fatal("the empty page after a flush published bounds")
	}
	for i := rpp; i < rpp+5; i++ {
		h.Append([]int64{i, -i})
	}
	if h.FlushedPages() != 1 || h.NumPages() != 2 {
		t.Fatalf("layout: %d flushed, %d total", h.FlushedPages(), h.NumPages())
	}
	for col, want := range [][2]int64{{rpp, rpp + 4}, {-rpp - 4, -rpp}} {
		if min, max, ok := h.PageColBounds(1, col); !ok || min != want[0] || max != want[1] {
			t.Fatalf("tail col %d: bounds [%d,%d] ok=%v, want %v", col, min, max, ok, want)
		}
	}
	for _, c := range [][2]int{{2, 0}, {-1, 0}, {0, 9}, {0, -1}} {
		if _, _, ok := h.PageColBounds(c[0], c[1]); ok {
			t.Fatalf("page %d col %d published bounds", c[0], c[1])
		}
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

	// A tail update widens the tail's synopsis at once, and the pair
	// stays as it is when the tail flushes.
	if err := h.UpdateCol(int64(2*rpp), 1, -1); err != nil {
		t.Fatal(err)
	}
	if min, max, _ := h.PageColBounds(2, 1); min != -1 || max != 200 {
		t.Fatalf("tail bounds [%d,%d], want [-1,200]", min, max)
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

// disjointBits is the per-cell reference for ClearDisjoint: keep with
// every still-set bit of a page whose synopsis is disjoint from [lo,hi]
// cleared, and how many it cleared.
func disjointBits(h *HeapFile, col, first, stride int, lo, hi int64, keep []bool) ([]bool, int) {
	want := append([]bool(nil), keep...)
	n := 0
	for i := range want {
		if min, max, ok := h.PageColBounds(first+i*stride, col); want[i] && ok && (max < lo || min > hi) {
			want[i] = false
			n++
		}
	}
	return want, n
}

// TestBulkBoundsMatchPerCell pins the bulk face against the per-cell one
// on a settled heap with a partial tail page: ClearDisjoint clears exactly
// the bits PageColBounds says are disjoint for every (first, stride),
// leaves bits past the last page and bits already clear alone, and
// AllPagesIntersect is true exactly when no page is disjoint — until a
// widening leaves its scalars stale, after which it may only err towards
// false.
func TestBulkBoundsMatchPerCell(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 9*h.RowsPerPage()+4; i++ {
		h.Append([]int64{int64(i / 10), rng.Int63n(100), 5})
	}
	pages := h.NumPages()
	for col := 0; col < 3; col++ {
		for first := 0; first <= pages; first++ {
			for stride := 1; stride <= 3; stride++ {
				lo := rng.Int63n(400) - 50
				hi := lo + rng.Int63n(100)
				keep := make([]bool, pages+2)
				for i := range keep {
					keep[i] = rng.Intn(4) > 0
				}
				want, wantN := disjointBits(h, col, first, stride, lo, hi, keep)
				n := h.ClearDisjoint(col, first, stride, lo, hi, keep)
				if n != wantN || fmt.Sprint(keep) != fmt.Sprint(want) {
					t.Fatalf("col %d first %d stride %d [%d,%d]: cleared %d to %v, per-cell clears %d to %v",
						col, first, stride, lo, hi, n, keep, wantN, want)
				}
			}
		}
	}
	if n := h.ClearDisjoint(7, 0, 1, 1, 0, []bool{true, true}); n != 0 {
		t.Fatalf("unknown column cleared %d pages", n)
	}

	allIntersect := func(col int, lo, hi int64) bool {
		_, n := disjointBits(h, col, 0, 1, lo, hi, slices.Repeat([]bool{true}, pages))
		return n == 0
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

	// Widen every page, the tail included, so that every page now reaches
	// 50 on column 0: the true answer for [45,50] flips to "all
	// intersect", the stale scalars may keep saying false, and must never
	// say true where a page is disjoint.
	v0 := h.BoundsVersion()
	for p := 0; p < pages; p++ {
		if err := h.UpdateCol(int64(p*h.RowsPerPage()), 0, 50); err != nil {
			t.Fatal(err)
		}
	}
	if h.BoundsVersion() == v0 {
		t.Fatal("widening pages did not advance the bounds version")
	}
	probe(false)
}

// TestBulkBoundsUnderWriter runs the bulk face from several goroutines
// while a writer appends (widening the tail's synopsis on every row of
// its ascending column, and flushing pages) and widens bounds in place
// (run under -race). The writer pauses between bursts so that readers
// get quiet gaps. A read bracketed by two equal BoundsVersion readings
// saw one synopsis, so there it must agree with the per-cell face
// exactly.
func TestBulkBoundsUnderWriter(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for i := 0; i < 3*h.RowsPerPage(); i++ {
		h.Append([]int64{int64(i), 1})
	}
	// Readers go on until the writer has flushed a few pages under them
	// (or their iterations run out).
	grown := func() bool { return h.FlushedPages() >= 6 }
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(9))
		for i := int64(3 * h.RowsPerPage()); ; i++ {
			if i%32 == 0 {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(100 * time.Microsecond) // a quiet gap
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
			for iter := 0; iter < 200000 && (checked < 200 || !grown()); iter++ {
				col, first, stride := iter%2, iter%5, 1+g
				v := h.BoundsVersion()
				keep := slices.Repeat([]bool{true}, 64)
				n := h.ClearDisjoint(col, first, stride, 1, 1, keep)
				// Every page of column 1 holds a 1 (widening only widens);
				// on column 0 only page 0 does.
				all := h.AllPagesIntersect(col, 1, 1)
				want, wantN := disjointBits(h, col, first, stride, 1, 1, slices.Repeat([]bool{true}, 64))
				_, disjoint := disjointBits(h, col, 0, 1, 1, 1, slices.Repeat([]bool{true}, h.NumPages()))
				if h.BoundsVersion() != v {
					continue // the synopsis moved under this read
				}
				runtime.Gosched() // let the writer in between stable reads
				checked++
				if n != wantN || !slices.Equal(keep, want) {
					t.Errorf("col %d first %d stride %d: cleared %d bits, per-cell clears %d at one version", col, first, stride, n, wantN)
					return
				}
				if all == (disjoint > 0) {
					t.Errorf("col %d: AllPagesIntersect(1,1)=%v, %d pages disjoint at one version", col, all, disjoint)
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
