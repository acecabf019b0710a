package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
)

// wideStar builds an ndims-dimension star: fact row (fk0..fk{n-1}, m),
// dimension d rows (k, v) with v = k%5 for k in [0, dimRows).
func wideStar(t testing.TB, ndims int, dimRows int64) *catalog.Star {
	t.Helper()
	dev := disk.NewMem()
	var factCols []catalog.Column
	var dims []*catalog.Table
	var fks, keys []int
	for d := 0; d < ndims; d++ {
		factCols = append(factCols, catalog.Column{Name: fmt.Sprintf("fk%d", d)})
		dim := catalog.NewTable(dev, fmt.Sprintf("d%d", d), 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
		for k := int64(0); k < dimRows; k++ {
			dim.Heap.Append([]int64{k, k % 5})
		}
		dims = append(dims, dim)
		fks = append(fks, d)
		keys = append(keys, 0)
	}
	factCols = append(factCols, catalog.Column{Name: "m"})
	fact := catalog.NewTable(dev, "f", 0, factCols)
	star, err := catalog.NewStar(fact, dims, fks, keys)
	if err != nil {
		t.Fatal(err)
	}
	return star
}

// TestFilterOrderInvariant checks the §3.4 Filtering Invariant on the
// flat batch: the same batch pushed through the Filters in any order
// ends with the same selection, the same bit-vectors, and — for every
// dimension some surviving query references — the same attached row.
// (A dimension no surviving query references may or may not have been
// probed, depending on whether an earlier Filter had already cleared the
// bits that forced the probe; no consumer can read that row, so it is
// outside the invariant.)
func TestFilterOrderInvariant(t *testing.T) {
	const (
		ndims   = 4
		dimRows = 40
		nrows   = 64
		queries = 12
	)
	for _, maxConc := range []int{64, 256} { // words 1 and 4
		t.Run(fmt.Sprintf("words=%d", bitvec.Words(maxConc)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(maxConc)))
			star := wideStar(t, ndims, dimRows)
			filters := make([]*dimState, ndims)
			refs := make([][]bool, ndims) // refs[d][slot]: slot references d
			slots := rng.Perm(maxConc)[:queries]
			for d := range filters {
				filters[d] = newTestDimState(star, d, maxConc)
				refs[d] = make([]bool, maxConc)
				for _, slot := range slots {
					if rng.Intn(3) == 0 {
						if err := filters[d].admit(slot, nil); err != nil {
							t.Fatal(err)
						}
						continue
					}
					refs[d][slot] = true
					if err := filters[d].admit(slot, predLt(rng.Int63n(5)+1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The page: random keys (some miss every table), random
			// relevance over the admitted slots.
			page := newBatch(nrows, ndims+1, bitvec.Words(maxConc), ndims)
			for i := 0; i < nrows; i++ {
				row, bv := page.push()
				for d := 0; d < ndims; d++ {
					row[d] = rng.Int63n(dimRows + 10)
				}
				row[ndims] = int64(i)
				for bv.IsZero() {
					for _, slot := range slots {
						if rng.Intn(3) == 0 {
							bv.Set(slot)
						}
					}
				}
			}
			run := func(order []int) *batch {
				b := newBatch(nrows, ndims+1, bitvec.Words(maxConc), ndims)
				b.sel = append(b.sel, page.sel...)
				copy(b.rowArena, page.rowArena)
				copy(b.bvArena, page.bvArena)
				for _, d := range order {
					filters[d].filterBatch(b)
				}
				return b
			}
			want := run([]int{0, 1, 2, 3})
			if len(want.sel) == 0 || len(want.sel) == nrows {
				t.Fatalf("degenerate case: %d of %d tuples survive", len(want.sel), nrows)
			}
			for trial := 0; trial < 20; trial++ {
				order := rng.Perm(ndims)
				got := run(order)
				if fmt.Sprint(got.sel) != fmt.Sprint(want.sel) {
					t.Fatalf("order %v: sel %v, want %v", order, got.sel, want.sel)
				}
				for k := range got.sel {
					row, bv, dims := got.survivor(k)
					_, wbv, wdims := want.survivor(k)
					if !bv.Equal(wbv) {
						t.Fatalf("order %v: tuple m=%d bits %v, want %v", order, row[ndims], bv, wbv)
					}
					for d := 0; d < ndims; d++ {
						referenced := false
						bv.ForEach(func(slot int) bool {
							referenced = referenced || refs[d][slot]
							return !referenced
						})
						if !referenced {
							continue
						}
						if dims[d] == nil || dims[d][0] != row[d] || fmt.Sprint(dims[d]) != fmt.Sprint(wdims[d]) {
							t.Fatalf("order %v: tuple m=%d dimension %d attached %v, want %v (fk %d)",
								order, row[ndims], d, dims[d], wdims[d], row[d])
						}
					}
				}
			}
		})
	}
}

// TestPooledBatchHoldsNoSnapshot: a batch pins one dimht snapshot per
// Filter that probed it, and only while it is in flight. Once back in
// the pool every snaps[d] is nil, so an idle batch never keeps a retired
// query's table alive.
func TestPooledBatchHoldsNoSnapshot(t *testing.T) {
	star := miniStar(t, 10)
	ds := newTestDimState(star, 0, 8)
	if err := ds.admit(0, predLt(5)); err != nil {
		t.Fatal(err)
	}
	pool := newTuplePool(1, 4, 2, 1, 1)
	stop := make(chan struct{})
	b := pool.get(stop)
	row, bv := b.push()
	row[0] = 3
	bv.Set(0)
	ds.filterBatch(b)
	if b.snaps[0] == nil {
		t.Fatal("a probing Filter must record the snapshot its slots index")
	}
	if _, _, dims := b.survivor(0); dims[0] == nil || dims[0][0] != 3 {
		t.Fatalf("attached row %v, want key 3", dims[0])
	}
	pool.put(b)
	for d, s := range b.snaps {
		if s != nil {
			t.Fatalf("pooled batch still holds dimension %d's snapshot", d)
		}
	}
	if again := pool.get(stop); again != b || len(again.sel) != 0 {
		t.Fatal("the recycled batch must come back empty")
	}
}
