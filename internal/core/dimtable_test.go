package core

import (
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/expr"
)

// miniStar builds a 1-dimension star with dimension rows (k, v) for
// k in [0, n).
func miniStar(t *testing.T, n int64) *catalog.Star {
	t.Helper()
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "fk"}, {Name: "m"}})
	dim := catalog.NewTable(dev, "d", 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
	for k := int64(0); k < n; k++ {
		dim.Heap.Append([]int64{k, k % 5})
	}
	star, err := catalog.NewStar(fact, []*catalog.Table{dim}, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return star
}

// predLt builds "v < x" over the dimension row (slot 0, col 1).
func predLt(x int64) expr.Node {
	return expr.Bin{Op: expr.Lt, L: expr.Col{Slot: 0, Idx: 1, Name: "v"}, R: expr.Const{V: x}}
}

// forEachImpl runs the test body against the one Filter store, the
// lock-free dimht table; the sub-test name keeps test IDs stable for
// tooling that tracks them.
func forEachImpl(t *testing.T, fn func(t *testing.T)) {
	t.Run("dimht", fn)
}

// checkEntries asserts pred over every stored entry's bit-vector.
func checkEntries(t *testing.T, ds *dimState, what string, pred func(bv bitvec.Vec) bool) {
	t.Helper()
	ds.store.ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if !pred(bv) {
			t.Fatalf("entry %d: %s (bits %v)", key, what, bv)
		}
		return true
	})
}

func TestDimStateAdmitReferenced(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		star := miniStar(t, 20)
		ds := newTestDimState(star, 0, 8)
		// Query slot 3 selects v < 2 (k%5 in {0,1}): 8 of 20 rows.
		if err := ds.admit(3, predLt(2)); err != nil {
			t.Fatal(err)
		}
		if ds.refCount() != 1 {
			t.Fatalf("refs %d", ds.refCount())
		}
		if ds.size() != 8 {
			t.Fatalf("stored %d entries", ds.size())
		}
		checkEntries(t, ds, "selected entry missing query bit", func(bv bitvec.Vec) bool {
			return bv.Get(3)
		})
	})
}

func TestDimStateAdmitNonReferencing(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		star := miniStar(t, 10)
		ds := newTestDimState(star, 0, 8)
		if err := ds.admit(1, predLt(5)); err != nil {
			t.Fatal(err)
		}
		// Slot 2 does not reference the dimension: every stored entry and
		// bDj must carry its bit (§3.2.1's implicit TRUE predicate).
		if err := ds.admit(2, nil); err != nil {
			t.Fatal(err)
		}
		checkEntries(t, ds, "non-referencing query bit missing", func(bv bitvec.Vec) bool {
			return bv.Get(2)
		})
	})
}

func TestDimStateRemoveGC(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		star := miniStar(t, 20)
		ds := newTestDimState(star, 0, 8)
		if err := ds.admit(0, predLt(2)); err != nil { // 8 entries
			t.Fatal(err)
		}
		if err := ds.admit(1, predLt(1)); err != nil { // subset: 4 entries
			t.Fatal(err)
		}
		if ds.size() != 8 {
			t.Fatalf("stored %d", ds.size())
		}
		// Removing query 0 must GC the entries only it selected.
		if emptied := ds.remove(0, true); emptied {
			t.Fatal("table must not be empty: query 1 remains")
		}
		if ds.size() != 4 {
			t.Fatalf("GC left %d entries, want 4", ds.size())
		}
		if emptied := ds.remove(1, true); !emptied {
			t.Fatal("removing the last query must empty the table")
		}
		if ds.size() != 0 || ds.refCount() != 0 {
			t.Fatalf("size=%d refs=%d", ds.size(), ds.refCount())
		}
	})
}

func TestDimStateSlotReuseInvariant(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		// After remove, the slot's bit must be clear everywhere so the
		// next admission with the same slot starts clean.
		star := miniStar(t, 10)
		ds := newTestDimState(star, 0, 8)
		if err := ds.admit(4, predLt(5)); err != nil {
			t.Fatal(err)
		}
		if err := ds.admit(5, predLt(3)); err != nil {
			t.Fatal(err)
		}
		ds.remove(4, true)
		checkEntries(t, ds, "stale entry bit after remove", func(bv bitvec.Vec) bool {
			return !bv.Get(4)
		})
		// Reuse slot 4 as non-referencing: every surviving entry gains it.
		if err := ds.admit(4, nil); err != nil {
			t.Fatal(err)
		}
		checkEntries(t, ds, "reused slot bit missing", func(bv bitvec.Vec) bool {
			return bv.Get(4)
		})
	})
}

func TestFilterBatchSemantics(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		star := miniStar(t, 10)
		ds := newTestDimState(star, 0, 8)
		if err := ds.admit(0, predLt(1)); err != nil { // selects k%5==0: keys 0,5
			t.Fatal(err)
		}
		if err := ds.admit(1, nil); err != nil { // does not reference d
			t.Fatal(err)
		}

		b := newBatch(4, 2, bitvec.Words(8), 1)
		// Tuple A: fk joins selected entry 5 → both queries keep it.
		row, bv := b.push()
		row[0] = 5
		bv.Set(0)
		bv.Set(1)
		// Tuple B: fk joins unselected key 3 → only query 1 keeps it.
		row, bv = b.push()
		row[0] = 3
		bv.Set(0)
		bv.Set(1)
		// Tuple C: relevant only to query 0, joins unselected key → dropped.
		row, bv = b.push()
		row[0] = 3
		bv.Set(0)
		// Tuple D: relevant only to non-referencing query 1 → probe skipped,
		// forwarded untouched.
		row, bv = b.push()
		row[0] = 99 // key that does not even exist
		bv.Set(1)

		ds.filterBatch(b)
		if len(b.sel) != 3 {
			t.Fatalf("survivors %d, want 3", len(b.sel))
		}
		_, bvA, dimsA := b.survivor(0)
		if !bvA.Get(0) || !bvA.Get(1) {
			t.Fatal("tuple A bits wrong")
		}
		if dimsA[0] == nil || dimsA[0][0] != 5 {
			t.Fatal("tuple A dimension row not attached")
		}
		if _, bvB, _ := b.survivor(1); bvB.Get(0) || !bvB.Get(1) {
			t.Fatal("tuple B bits wrong")
		}
		if _, _, dimsD := b.survivor(2); dimsD[0] != nil {
			t.Fatal("skip-path tuple must not have a row attached")
		}
		st := ds.stats()
		if st.TuplesIn != 4 || st.Probes != 3 || st.Drops != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
}

// TestFilterBatchWidePath exercises the multi-word bit-vector path
// (maxConc > 64), which the single-word fast path bypasses.
func TestFilterBatchWidePath(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		const maxConc = 192
		star := miniStar(t, 10)
		ds := newTestDimState(star, 0, maxConc)
		hi := maxConc - 1                               // slot in the third word
		if err := ds.admit(hi, predLt(1)); err != nil { // keys 0, 5
			t.Fatal(err)
		}
		if err := ds.admit(70, nil); err != nil { // second word, non-referencing
			t.Fatal(err)
		}

		b := newBatch(3, 2, bitvec.Words(maxConc), 1)
		row, bv := b.push() // joins selected key → both bits survive
		row[0] = 5
		bv.Set(hi)
		bv.Set(70)
		row, bv = b.push() // misses → only the non-referencing bit survives
		row[0] = 3
		bv.Set(hi)
		bv.Set(70)
		row, bv = b.push() // relevant only to hi, misses → dropped
		row[0] = 3
		bv.Set(hi)

		ds.filterBatch(b)
		if len(b.sel) != 2 {
			t.Fatalf("survivors %d, want 2", len(b.sel))
		}
		_, bvA, dimsA := b.survivor(0)
		if !bvA.Get(hi) || !bvA.Get(70) {
			t.Fatal("tuple A bits wrong")
		}
		if dimsA[0] == nil || dimsA[0][0] != 5 {
			t.Fatal("tuple A dimension row not attached")
		}
		if _, bvB, _ := b.survivor(1); bvB.Get(hi) || !bvB.Get(70) {
			t.Fatal("tuple B bits wrong")
		}
	})
}

func TestFilterBatchNoRefsPassthrough(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		star := miniStar(t, 5)
		ds := newTestDimState(star, 0, 8)
		b := newBatch(2, 2, bitvec.Words(8), 1)
		row, bv := b.push()
		row[0] = 1
		bv.Set(0)
		ds.filterBatch(b)
		if len(b.sel) != 1 || !bv.Get(0) {
			t.Fatal("unreferenced filter must pass tuples through")
		}
		if ds.stats().Probes != 0 {
			t.Fatal("unreferenced filter must not probe")
		}
	})
}

func TestDecayStats(t *testing.T) {
	star := miniStar(t, 5)
	ds := newTestDimState(star, 0, 8)
	ds.tuplesIn.Store(100)
	ds.drops.Store(50)
	ds.probes.Store(80)
	ds.decayStats()
	st := ds.stats()
	if st.TuplesIn != 50 || st.Drops != 25 || st.Probes != 40 {
		t.Fatalf("decay wrong: %+v", st)
	}
	if st.DropRate() != 0.5 {
		t.Fatalf("drop rate %g", st.DropRate())
	}
}
