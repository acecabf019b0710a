package core

import (
	"context"
	"math/rand"
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/storage"
)

func partStar(t *testing.T, rowsPerPart []int64) *catalog.Star {
	t.Helper()
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "pk"}, {Name: "v"}})
	dim := catalog.NewTable(dev, "d", 0, []catalog.Column{{Name: "k"}})
	dim.Heap.Append([]int64{1})
	star, err := catalog.NewStar(fact, []*catalog.Table{dim}, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var parts []catalog.FactPartition
	next := int64(0)
	for pi, n := range rowsPerPart {
		h := storage.CreateHeap(dev, 2)
		for i := int64(0); i < n; i++ {
			h.Append([]int64{int64(pi), next})
			next++
		}
		parts = append(parts, catalog.FactPartition{Heap: h, MinKey: int64(pi), MaxKey: int64(pi)})
	}
	if err := star.SetPartitions(0, parts); err != nil {
		t.Fatal(err)
	}
	return star
}

func TestFactScanCyclesOverPartitions(t *testing.T) {
	star := partStar(t, []int64{700, 300, 500}) // 511 rows/page → 2+1+1 pages
	s := newFactScan(star, nil, nil, nil)
	vals := make([]int64, s.rpp*s.ncols)
	// Two full cycles are consumed: the wrap flag arrives with the first
	// page of the next cycle.
	total := int64(2 * 1500)
	var seen int64
	var prev int64 = -1
	wraps := 0
	for wraps < 2 {
		n, pos, _, _, wrapped, err := s.nextPage(vals, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			wraps++
			if wraps == 2 {
				break
			}
			prev = -1
		}
		_ = pos
		for i := 0; i < n; i++ {
			v := vals[i*2+1]
			if v != prev+1 {
				t.Fatalf("row order broken: %d after %d", v, prev)
			}
			prev = v
			seen++
		}
	}
	if seen != total {
		t.Fatalf("saw %d rows over two full cycles, want %d", seen, total)
	}
}

func TestFactScanSkipsPartitions(t *testing.T) {
	star := partStar(t, []int64{400, 400, 400})
	s := newFactScan(star, nil, nil, nil)
	vals := make([]int64, s.rpp*s.ncols)
	skipMiddle := func(p int) bool { return p == 1 }
	seenParts := map[int]bool{}
	for i := 0; i < 10; i++ {
		n, _, part, _, _, err := s.nextPage(vals, skipMiddle, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("scan starved")
		}
		seenParts[part] = true
		if vals[0] == 1 {
			t.Fatal("row from skipped partition delivered")
		}
	}
	if seenParts[1] || !seenParts[0] || !seenParts[2] {
		t.Fatalf("partitions visited: %v", seenParts)
	}
}

func TestFactScanAllSkipped(t *testing.T) {
	star := partStar(t, []int64{100})
	s := newFactScan(star, nil, nil, nil)
	n, _, _, _, _, err := s.nextPage(make([]int64, s.rpp*s.ncols), func(int) bool { return true }, nil)
	if err != nil || n != 0 {
		t.Fatalf("fully skipped scan must return n=0: n=%d err=%v", n, err)
	}
}

func TestFactScanPositionsStable(t *testing.T) {
	star := partStar(t, []int64{700, 300})
	s := newFactScan(star, nil, nil, nil)
	vals := make([]int64, s.rpp*s.ncols)
	var firstCycle, secondCycle []int64
	for {
		_, pos, _, _, wrapped, err := s.nextPage(vals, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			// The wrap flag arrives with cycle 2's first page.
			secondCycle = append(secondCycle, pos)
			break
		}
		firstCycle = append(firstCycle, pos)
	}
	for len(secondCycle) < len(firstCycle) {
		_, pos, _, _, _, err := s.nextPage(vals, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		secondCycle = append(secondCycle, pos)
	}
	// §3.3.3: "the continuous scan returns fact tuples in the same order
	// once resumed".
	for i := range firstCycle {
		if secondCycle[i] != firstCycle[i] {
			t.Fatalf("cycle 2 position %d = %d, want %d", i, secondCycle[i], firstCycle[i])
		}
	}
}

func TestOptimizerOrdersBySelectivity(t *testing.T) {
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "a"}, {Name: "b"}, {Name: "m"}})
	d1 := catalog.NewTable(dev, "d1", 0, []catalog.Column{{Name: "k1"}})
	d2 := catalog.NewTable(dev, "d2", 0, []catalog.Column{{Name: "k2"}})
	d1.Heap.Append([]int64{1})
	d2.Heap.Append([]int64{1})
	star, err := catalog.NewStar(fact, []*catalog.Table{d1, d2}, []int{0, 1}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	p := NewTestPipeline(t, star, Config{MaxConcurrent: 4}, ShardConfig{})
	// One admitted query referencing both dimensions activates both
	// filters; then give them measured drop rates: d2 drops more.
	q, err := query.ParseBind("SELECT COUNT(*) FROM f, d1, d2 WHERE a = k1 AND b = k2", star)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.plane.AdmitBatch(context.Background(), []*query.Bound{q}); err != nil {
		t.Fatal(err)
	}
	p.pmMu.Lock()
	p.rebuildFilterOrderLocked()
	p.pmMu.Unlock()
	if got := *p.filterOrder.Load(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("order after admission: %v (want [0 1])", got)
	}
	p.dimStates[0].tuplesIn.Store(1000)
	p.dimStates[0].drops.Store(100)
	p.dimStates[1].tuplesIn.Store(1000)
	p.dimStates[1].drops.Store(900)

	p.ReorderFilters()
	got := *p.filterOrder.Load()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("order after reorder: %v (want [1 0])", got)
	}
	// Counters must have decayed.
	if p.dimStates[1].drops.Load() != 450 {
		t.Fatalf("decay missing: %d", p.dimStates[1].drops.Load())
	}
}

func TestTuplePoolBackpressure(t *testing.T) {
	p := newTuplePool(2, 4, 2, 1, 1)
	stop := make(chan struct{})
	b1 := p.get(stop)
	b2 := p.get(stop)
	if b1 == nil || b2 == nil {
		t.Fatal("pool must supply its capacity")
	}
	// Third get must block until a put; verify via the stop path.
	done := make(chan *batch, 1)
	go func() { done <- p.get(stop) }()
	select {
	case <-done:
		t.Fatal("get must block when the pool is exhausted")
	default:
	}
	p.put(b1)
	if b := <-done; b == nil {
		t.Fatal("blocked get must obtain the released batch")
	}
	// Stop path unblocks with nil.
	go func() { done <- p.get(stop) }()
	close(stop)
	if b := <-done; b != nil {
		t.Fatal("get must return nil on stop")
	}
	// Control batches are never pooled.
	p.put(ctrlBatch(0, ctrlStart, nil, nil))
	if p.capSlots() != 2 {
		t.Fatalf("cap %d", p.capSlots())
	}
}

// TestBatchSelectionInvariants pins what a flat batch promises across
// Filters (batch.go): tuples are arena indices, a Filter only rewrites
// the selection, and recycling a batch zeroes nothing per tuple.
func TestBatchSelectionInvariants(t *testing.T) {
	for _, maxConc := range []int{8, 192} { // word path, vector path
		star := miniStar(t, 10)
		ds := newTestDimState(star, 0, maxConc)
		if err := ds.admit(0, predLt(1)); err != nil { // selects keys 0, 5
			t.Fatal(err)
		}
		if err := ds.admit(1, nil); err != nil { // does not reference d
			t.Fatal(err)
		}
		b := newBatch(16, 2, bitvec.Words(maxConc), 1)
		rng := rand.New(rand.NewSource(int64(maxConc)))
		for i := 0; i < 16; i++ {
			row, bv := b.push()
			row[0], row[1] = rng.Int63n(12), int64(1000+i)
			bv.Set(rng.Intn(2)) // query 0 only, or query 1 only (skip path)
		}
		in := append([]int32(nil), b.sel...)
		rowsBefore := append([]int64(nil), b.rowArena...)

		ds.filterBatch(b)

		// sel is a strictly increasing subsequence of its input.
		if len(b.sel) == 0 || len(b.sel) == len(in) {
			t.Fatalf("mc=%d: want some but not all tuples dropped, %d of %d survive", maxConc, len(b.sel), len(in))
		}
		k := 0
		for _, i := range b.sel {
			for k < len(in) && in[k] != i {
				k++
			}
			if k == len(in) {
				t.Fatalf("mc=%d: sel %v is not an ordered subsequence of %v", maxConc, b.sel, in)
			}
			k++
		}
		// No tuple moved: every arena row, dropped or not, is untouched.
		for j, v := range b.rowArena {
			if v != rowsBefore[j] {
				t.Fatalf("mc=%d: row arena cell %d changed %d -> %d", maxConc, j, rowsBefore[j], v)
			}
		}
		// Skip-path tuples have no row attached; probed hits do.
		for k := range b.sel {
			row, bv, dims := b.survivor(k)
			if bv.Get(1) && dims[0] != nil {
				t.Fatalf("mc=%d: skip-path tuple fk=%d has a row attached", maxConc, row[0])
			}
			if bv.Get(0) && (dims[0] == nil || dims[0][0] != row[0]) {
				t.Fatalf("mc=%d: probed tuple fk=%d attached %v", maxConc, row[0], dims[0])
			}
		}
		b.reset()
		if len(b.sel) != 0 {
			t.Fatalf("mc=%d: reset left %d selected", maxConc, len(b.sel))
		}
	}
}
