package dimplane

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/expr"
	"cjoin/internal/obs"
	"cjoin/internal/query"
)

// Admit is AdmitBatch for a lone query: a batch of one.
func (pl *Plane) Admit(ctx context.Context, q *query.Bound) (slot int, err error) {
	slots, err := pl.AdmitBatch(ctx, []*query.Bound{q})
	if err != nil {
		return -1, err
	}
	return slots[0], nil
}

// miniStar builds a 2-dimension star; dimension d1 holds rows (k, k%5)
// for k in [0, n), d2 holds (k, k%3).
func miniStar(t testing.TB, n int64) *catalog.Star {
	t.Helper()
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "fk1"}, {Name: "fk2"}, {Name: "m"}})
	d1 := catalog.NewTable(dev, "d1", 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
	d2 := catalog.NewTable(dev, "d2", 0, []catalog.Column{{Name: "k"}, {Name: "w"}})
	for k := int64(0); k < n; k++ {
		d1.Heap.Append([]int64{k, k % 5})
		d2.Heap.Append([]int64{k, k % 3})
	}
	star, err := catalog.NewStar(fact, []*catalog.Table{d1, d2}, []int{0, 1}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return star
}

// predLt builds "col1 < x" over a dimension row.
func predLt(dim int, x int64) expr.Node {
	return expr.Bin{Op: expr.Lt, L: expr.Col{Slot: dim, Idx: 1}, R: expr.Const{V: x}}
}

// boundRef builds a Bound referencing d1 with "v < x" and leaving d2
// unreferenced.
func boundRef(star *catalog.Star, x int64) *query.Bound {
	return &query.Bound{
		Schema:   star,
		DimRefs:  []bool{true, false},
		DimPreds: []expr.Node{predLt(0, x), nil},
	}
}

func TestAdmitOnceInstallsEverywhere(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 8})
	slot, err := pl.Admit(context.Background(), boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	// d1: v < 2 selects k%5 in {0,1}: 8 of 20 rows, tagged with slot.
	if got := pl.Store(0).Len(); got != 8 {
		t.Fatalf("d1 stored %d, want 8", got)
	}
	if got := pl.Store(0).RefCount(); got != 1 {
		t.Fatalf("d1 refs %d", got)
	}
	pl.Store(0).ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if !bv.Get(slot) {
			t.Fatalf("d1 entry %d missing query bit", key)
		}
		return true
	})
	// d2 is unreferenced: empty, no refs.
	if got := pl.Store(1).Len(); got != 0 {
		t.Fatalf("d2 stored %d, want 0", got)
	}
	if got := pl.Store(1).RefCount(); got != 0 {
		t.Fatalf("d2 refs %d", got)
	}
	if pl.InUse() != 1 {
		t.Fatalf("InUse %d", pl.InUse())
	}
	st := pl.Stats()
	if st.Admits != 1 || st.AdmitNanos <= 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MemBytes <= 0 || st.PeakMemBytes < st.MemBytes {
		t.Fatalf("memory accounting: %+v", st)
	}
}

// TestRetireReleasesOnce verifies the single-hold release: the one
// Retire of an admitted slot clears its bit, garbage-collects its entries
// and frees the slot, and a second Retire panics (a double release would
// corrupt a reused slot).
func TestRetireReleasesOnce(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 8})
	slot, err := pl.Admit(context.Background(), boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	pl.Retire(slot)
	if pl.Store(0).Len() != 0 || pl.Store(0).RefCount() != 0 || pl.InUse() != 0 {
		t.Fatalf("state not released: len=%d refs=%d inuse=%d",
			pl.Store(0).Len(), pl.Store(0).RefCount(), pl.InUse())
	}
	if st := pl.Stats(); st.SnapshotPublishes != 4 {
		t.Fatalf("publishes = %d, want 4 (one per store at admission and at retire)", st.SnapshotPublishes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Retire did not panic")
		}
	}()
	pl.Retire(slot)
}

// TestRetireUnadmittedPanics verifies the other half of the single-hold
// guard: retiring a slot that was never admitted (here, a free slot next
// to an admitted one) panics before it touches the stores, so the
// admitted query's entries, bits and counters are left as they were.
func TestRetireUnadmittedPanics(t *testing.T) {
	star := miniStar(t, 20)
	reg := obs.NewRegistry()
	pl := New(star, Config{MaxConcurrent: 8, Obs: reg})
	// Re-registering the family returns the plane's own series.
	retires := reg.Counter("cjoin_dimplane_retires_total", "")
	slot, err := pl.Admit(context.Background(), boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	free := (slot + 1) % pl.MaxConcurrent()
	publishes := pl.Stats().SnapshotPublishes
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Retire of never-admitted slot %d did not panic", free)
			}
		}()
		pl.Retire(free)
	}()
	if pl.InUse() != 1 || pl.Store(0).Len() != 8 || pl.Store(0).RefCount() != 1 {
		t.Fatalf("plane changed by the refused retire: inuse=%d len=%d refs=%d",
			pl.InUse(), pl.Store(0).Len(), pl.Store(0).RefCount())
	}
	if got := pl.Stats().SnapshotPublishes; retires.Value() != 0 || got != publishes {
		t.Fatalf("refused retire counted: retires %d, publishes %d→%d", retires.Value(), publishes, got)
	}
	pl.Retire(slot)
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 || retires.Value() != 1 {
		t.Fatalf("admitted slot not released: inuse=%d len=%d retires=%d",
			pl.InUse(), pl.Store(0).Len(), retires.Value())
	}
}

// TestAdmitRollsBackOnContextCancel verifies a context canceled
// mid-admission leaves no trace: no slot held, no bits set, no entries.
func TestAdmitRollsBackOnContextCancel(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Admit(ctx, boundRef(star, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 || pl.Store(1).RefCount() != 0 {
		t.Fatal("canceled admission left state behind")
	}
	// The plane stays usable for the next admission.
	slot, err := pl.Admit(context.Background(), boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	pl.Retire(slot)
}

func TestSlotsExhausted(t *testing.T) {
	star := miniStar(t, 10)
	pl := New(star, Config{MaxConcurrent: 2})
	ctx := context.Background()
	s0, err := pl.Admit(ctx, boundRef(star, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Admit(ctx, boundRef(star, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Admit(ctx, boundRef(star, 3)); !errors.Is(err, ErrSlotsExhausted) {
		t.Fatalf("err = %v", err)
	}
	// Freeing one slot re-opens admission.
	pl.Retire(s0)
	if _, err := pl.Admit(ctx, boundRef(star, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReuseInvariant checks the Admit-entry invariant across a
// retire/readmit cycle: a recycled slot starts with its bit clear in
// every store, so a new query's selection is exact.
func TestSlotReuseInvariant(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 8})
	ctx := context.Background()
	a, err := pl.Admit(ctx, boundRef(star, 5)) // broad selection
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Admit(ctx, boundRef(star, 1)) // subset
	if err != nil {
		t.Fatal(err)
	}
	pl.Retire(a)
	// The survivor entries must carry only b's bit.
	pl.Store(0).ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if bv.Get(a) {
			t.Fatalf("entry %d keeps retired slot %d's bit", key, a)
		}
		return true
	})
	// Reuse of a's slot as non-referencing: every survivor gains it.
	c, err := pl.Admit(ctx, &query.Bound{
		Schema:   star,
		DimRefs:  []bool{false, true},
		DimPreds: []expr.Node{nil, predLt(1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Logf("allocator returned %d (not recycled %d); invariant still checked", c, a)
	}
	pl.Store(0).ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if !bv.Get(c) {
			t.Fatalf("entry %d missing non-referencing bit %d", key, c)
		}
		return true
	})
	pl.Retire(b)
	pl.Retire(c)
	if pl.Store(0).Len() != 0 || pl.Store(1).Len() != 0 || pl.InUse() != 0 {
		t.Fatal("plane not empty after all retires")
	}
}

// TestSelectedKeyRange exercises the §5 partition-pruning probe.
func TestSelectedKeyRange(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 8})
	slot, err := pl.Admit(context.Background(), boundRef(star, 2)) // k%5 in {0,1}
	if err != nil {
		t.Fatal(err)
	}
	min, max, any := pl.SelectedKeyRange(0, slot)
	if !any || min != 0 || max != 16 {
		t.Fatalf("range = (%d, %d, %v), want (0, 16, true)", min, max, any)
	}
	if _, _, any := pl.SelectedKeyRange(1, slot); any {
		t.Fatal("unreferenced dimension reported a key range")
	}
}

// TestConcurrentAdmitRetire churns admissions and retires from many
// goroutines; under -race this verifies the plane's write side
// needs no coordination beyond the per-store writer locks and the slot
// allocator's atomics.
func TestConcurrentAdmitRetire(t *testing.T) {
	star := miniStar(t, 40)
	pl := New(star, Config{MaxConcurrent: 16})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				slot, err := pl.Admit(ctx, boundRef(star, int64(1+i%5)))
				if errors.Is(err, ErrSlotsExhausted) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				pl.Retire(slot)
			}
		}(w)
	}
	wg.Wait()
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 || pl.Store(0).RefCount() != 0 {
		t.Fatalf("churn left inuse=%d len=%d refs=%d", pl.InUse(), pl.Store(0).Len(), pl.Store(0).RefCount())
	}
}

// TestAdmitFaultHook verifies an injected admission error rolls the slot
// back and leaves the plane clean.
func TestAdmitFaultHook(t *testing.T) {
	star := miniStar(t, 20)
	boom := errors.New("injected")
	fail := true
	pl := New(star, Config{MaxConcurrent: 8, AdmitFault: func() error {
		if fail {
			return boom
		}
		return nil
	}})
	if _, err := pl.Admit(context.Background(), boundRef(star, 2)); !errors.Is(err, boom) {
		t.Fatalf("Admit = %v, want injected error", err)
	}
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 {
		t.Fatalf("failed admission left state: inuse=%d len=%d", pl.InUse(), pl.Store(0).Len())
	}
	fail = false
	if _, err := pl.Admit(context.Background(), boundRef(star, 2)); err != nil {
		t.Fatal(err)
	}
}
