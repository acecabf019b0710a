package dimplane

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/expr"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

// fullScan is the reference selection: every row of the heap through
// the row-at-a-time scanner, no pruning.
func fullScan(t testing.TB, h *storage.HeapFile, pred expr.Node) [][]int64 {
	t.Helper()
	var out [][]int64
	sc := storage.NewScanner(h)
	for row, ok := sc.Next(); ok; row, ok = sc.Next() {
		if expr.EvalRow(pred, row) {
			out = append(out, slices.Clone(row))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsOf(r Rows) [][]int64 {
	var out [][]int64
	for i := range r.Len() {
		out = append(out, r.Row(i))
	}
	return out
}

// randDimPred is a random predicate over a (key, mod, noise) row:
// ranges and IN lists on the clustered key column (the ones that
// prune), comparisons on the others, and OR/NOT above them (which must
// not prune).
func randDimPred(rng *rand.Rand, n int64, depth int) expr.Node {
	c := func(i int) expr.Col { return expr.Col{Slot: 0, Idx: i} }
	k := func(v int64) expr.Const { return expr.Const{V: v} }
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(6) {
		case 0, 1:
			lo := rng.Int63n(n+20) - 10
			return expr.Between(c(0), lo, lo+rng.Int63n(n/4+1))
		case 2:
			vals := make([]int64, rng.Intn(4))
			for i := range vals {
				vals[i] = rng.Int63n(n)
			}
			return expr.NewIn(c(0), vals)
		case 3:
			return expr.Bin{Op: expr.Op(int(expr.Eq) + rng.Intn(6)), L: k(rng.Int63n(n)), R: c(0)}
		default:
			return expr.Bin{Op: expr.Op(int(expr.Eq) + rng.Intn(6)), L: c(1 + rng.Intn(2)), R: k(rng.Int63n(7))}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return expr.Bin{Op: expr.Or, L: randDimPred(rng, n, depth-1), R: randDimPred(rng, n, depth-1)}
	case 1:
		return expr.Not{X: randDimPred(rng, n, depth-1)}
	default:
		return expr.Bin{Op: expr.And, L: randDimPred(rng, n, depth-1), R: randDimPred(rng, n, depth-1)}
	}
}

// TestSelectRowsPrunedMatchesFullScan is the soundness property of the
// pruned predicate scan: for random predicates over dimension heaps with
// a clustered key, it selects exactly the rows — in the same order — a
// full scan selects. The heaps have an unflushed tail page, pruned by its
// own synopsis like any other page, and between rounds in-place rewrites
// move keys far outside their page's bounds (the widen-only synopsis
// path) and appends grow the tail, so a page the scan skips on stale
// bounds would show up here as a missing row.
func TestSelectRowsPrunedMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int64{0, 7, 512, 1500} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			h := storage.CreateHeap(disk.NewMem(), 3) // 341 rows per page
			for k := int64(0); k < n; k++ {
				h.Append([]int64{k, k % 7, rng.Int63n(5)})
			}
			var read, pruned int
			for round := 0; round < 4; round++ {
				// Ranges that touch a page's bounds exactly, the tail's
				// included, where an off-by-one in the disjointness test
				// would drop the page holding the boundary row.
				var preds []expr.Node
				key := expr.Col{Slot: 0, Idx: 0}
				for p := range h.NumPages() {
					lo, hi, _ := h.PageColBounds(p, 0)
					preds = append(preds,
						expr.Bin{Op: expr.Eq, L: key, R: expr.Const{V: lo}},
						expr.Bin{Op: expr.Eq, L: key, R: expr.Const{V: hi}},
						expr.Between(key, hi, hi+3), expr.Between(key, lo-3, lo))
				}
				for trial := 0; trial < 150; trial++ {
					preds = append(preds, randDimPred(rng, n+1, 3))
				}
				for _, pred := range preds {
					got, pc, err := selectRows(h, pred)
					if err != nil {
						t.Fatal(err)
					}
					want := fullScan(t, h, pred)
					if g := rowsOf(got); !slices.EqualFunc(g, want, slices.Equal) {
						t.Fatalf("round %d, %s: pruned scan selected %d rows, full scan %d", round, pred, len(g), len(want))
					}
					if total := h.NumPages(); pc.read+pc.pruned != total {
						t.Fatalf("%s: read %d + pruned %d pages of %d", pred, pc.read, pc.pruned, total)
					}
					read, pruned = read+pc.read, pruned+pc.pruned
				}
				if rows := h.NumRows(); rows > 0 {
					for i := 0; i < 3; i++ {
						idx := rng.Int63n(rows)
						if err := h.UpdateCol(idx, 0, rng.Int63n(2*n+2)-n/2); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 40; i++ {
					h.Append([]int64{n + int64(round*40+i), int64(i % 7), rng.Int63n(5)})
				}
			}
			if n >= 512 && pruned == 0 {
				t.Fatalf("no page was ever pruned over %d page reads; the property was not exercised", read)
			}
		})
	}
}

// TestSelectRowsReadsOnlyHitPages pins the saving on the SSB date
// dimension (2 557 rows, 63 to a page): a 5 % window of date keys — the
// adhoc shape — reads the few pages the window spans plus the tail,
// not all 41, and a contradiction reads none.
func TestSelectRowsReadsOnlyHitPages(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := ds.Date.Heap
	pages := h.NumPages()
	k := len(ds.DateKeys) / 20
	lo := len(ds.DateKeys) / 3
	text := fmt.Sprintf("SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
		ds.DateKeys[lo], ds.DateKeys[lo+k-1])
	q, err := query.ParseBind(text, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	pred := q.DimPreds[ds.Star.DimIndex("date")]
	got, pc, err := selectRows(h, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != k {
		t.Fatalf("selected %d rows, want %d", got.Len(), k)
	}
	// k rows span at most ⌈k/63⌉+1 pages; the tail is read as well.
	if maxRead := (k+h.RowsPerPage()-1)/h.RowsPerPage() + 2; pc.read > maxRead || pc.read+pc.pruned != pages {
		t.Fatalf("read %d and pruned %d of %d pages, want at most %d read", pc.read, pc.pruned, pages, maxRead)
	}
	none := expr.Bin{Op: expr.And, L: pred, R: expr.Bin{Op: expr.Lt, L: expr.Col{Slot: 0, Idx: 0}, R: expr.Const{V: ds.DateKeys[0]}}}
	if got, pc, err := selectRows(h, none); err != nil || got.Len() != 0 || pc.read != 0 {
		t.Fatalf("contradiction: %d rows, %d pages read, err %v", got.Len(), pc.read, err)
	}
}

// TestSelectRowsAllocs: a predicate scan allocates its result arena and
// nothing per row — the page buffers, bounds, verdicts and evaluation row
// are pooled (sync.Pool drops entries at random under the race detector,
// so the guard runs without it).
func TestSelectRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately lossy under -race")
	}
	h := storage.CreateHeap(disk.NewMem(), 3)
	for k := int64(0); k < 3000; k++ {
		h.Append([]int64{k, k % 7, k % 5})
	}
	for _, tc := range []struct {
		name string
		pred expr.Node
	}{
		{"pruned", expr.Between(expr.Col{Slot: 0, Idx: 0}, 1000, 1400)},
		{"full", expr.Bin{Op: expr.Eq, L: expr.Col{Slot: 0, Idx: 1}, R: expr.Const{V: 3}}},
	} {
		selectRows(h, tc.pred) // warm the pool
		if a := testing.AllocsPerRun(50, func() { selectRows(h, tc.pred) }); a > 1 {
			t.Fatalf("%s: %.1f allocations per scan, want 1 (the result arena)", tc.name, a)
		}
	}
}

// TestScanPagesMetric: the plane counts each miss scan's pages under
// cjoin_dimplane_scan_pages_total, read and pruned, and a cache hit
// scans nothing.
func TestScanPagesMetric(t *testing.T) {
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "fk"}, {Name: "m"}})
	dim := catalog.NewTable(dev, "d", 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
	for k := int64(0); k < 2048; k++ { // 511 rows per page: 4 full pages and a tail
		dim.Heap.Append([]int64{k, k % 5})
	}
	star, err := catalog.NewStar(fact, []*catalog.Table{dim}, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pl := New(star, Config{MaxConcurrent: 4, Obs: reg})
	q := &query.Bound{Schema: star, DimRefs: []bool{true},
		DimPreds: []expr.Node{expr.Between(expr.Col{Slot: 0, Idx: 0}, 600, 700)}}
	for i := 0; i < 2; i++ { // the second admission is a cache hit
		slot, err := pl.Admit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		pl.Retire(slot)
	}
	// Re-registering the family returns the plane's own series.
	pages := reg.CounterVec("cjoin_dimplane_scan_pages_total", "", "outcome")
	read, pruned := pages.With("read").Value(), pages.With("pruned").Value()
	if read != 1 || pruned != 4 { // page 1; pages 0, 2, 3 and the tail
		t.Fatalf("pages read %v, pruned %v; want 1 and 4", read, pruned)
	}
}

// BenchmarkSelectRows times one predicate-scan miss over the SSB date
// dimension: a 5 % key window the zone maps prune, and a non-key
// predicate that reads every page.
func BenchmarkSelectRows(b *testing.B) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	h := ds.Date.Heap
	keys := ds.DateKeys
	for _, bc := range []struct {
		name string
		pred expr.Node
	}{
		{"window5pct", expr.Between(expr.Col{Slot: 0, Idx: 0}, keys[len(keys)/3], keys[len(keys)/3+len(keys)/20])},
		{"year", expr.Bin{Op: expr.Eq, L: expr.Col{Slot: 0, Idx: 4}, R: expr.Const{V: 1995}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := selectRows(h, bc.pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
