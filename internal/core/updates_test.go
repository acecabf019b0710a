package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

// countStar binds a COUNT(*) over the whole fact table joined with date,
// pinned to the given snapshot.
func countAll(t *testing.T, ds *ssb.Dataset) *query.Bound {
	t.Helper()
	q, err := query.ParseBind(
		"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	q.Snapshot = ds.Txn.Begin()
	return q
}

func TestSnapshotIsolationAcrossAppends(t *testing.T) {
	ds := dataset(t, 1000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})
	rng := rand.New(rand.NewSource(61))

	qOld := countAll(t, ds) // snapshot 0: sees the initial 1000 rows
	if _, err := ds.AppendFact(200, rng); err != nil {
		t.Fatal(err)
	}
	qNew := countAll(t, ds) // snapshot 1: sees 1200 rows

	hOld, err := p.Submit(qOld)
	if err != nil {
		t.Fatal(err)
	}
	hNew, err := p.Submit(qNew)
	if err != nil {
		t.Fatal(err)
	}
	rOld, rNew := hOld.Wait(), hNew.Wait()
	if rOld.Err != nil || rNew.Err != nil {
		t.Fatal(rOld.Err, rNew.Err)
	}
	if got := rOld.Rows[0].Ints[0]; got != 1000 {
		t.Fatalf("old snapshot sees %d rows, want 1000", got)
	}
	if got := rNew.Rows[0].Ints[0]; got != 1200 {
		t.Fatalf("new snapshot sees %d rows, want 1200", got)
	}
}

func TestSnapshotIsolationAcrossDeletes(t *testing.T) {
	ds := dataset(t, 500)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})

	qBefore := countAll(t, ds)
	for idx := int64(0); idx < 10; idx++ {
		if _, err := ds.DeleteFact(idx); err != nil {
			t.Fatal(err)
		}
	}
	qAfter := countAll(t, ds)

	hBefore, err := p.Submit(qBefore)
	if err != nil {
		t.Fatal(err)
	}
	hAfter, err := p.Submit(qAfter)
	if err != nil {
		t.Fatal(err)
	}
	rBefore, rAfter := hBefore.Wait(), hAfter.Wait()
	if rBefore.Err != nil || rAfter.Err != nil {
		t.Fatal(rBefore.Err, rAfter.Err)
	}
	if got := rBefore.Rows[0].Ints[0]; got != 500 {
		t.Fatalf("pre-delete snapshot sees %d rows, want 500", got)
	}
	if got := rAfter.Rows[0].Ints[0]; got != 490 {
		t.Fatalf("post-delete snapshot sees %d rows, want 490", got)
	}
}

func TestQueriesMatchReferenceWhileUpdating(t *testing.T) {
	// Mixed workload (§3.5): queries at different snapshots run in the
	// same pipeline while appends keep landing. Every query must match
	// the reference executor pinned at the same snapshot.
	ds := dataset(t, 1500)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 16, Workers: 2})
	w := ssb.NewWorkload(ds, 0.1, 67)
	rng := rand.New(rand.NewSource(71))

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			if _, err := ds.AppendFact(50, rng); err != nil {
				t.Fatal(err)
			}
		}
		_, text := w.Next()
		q, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		q.Snapshot = ds.Txn.Begin()
		wg.Add(1)
		go func(q *query.Bound) {
			defer wg.Done()
			h, err := p.Submit(q)
			if err != nil {
				t.Error(err)
				return
			}
			res := h.Wait()
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			// The reference reads the heap after all appends, but the
			// snapshot pins visibility, so results must agree.
			want, err := ref.Execute(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !ref.ResultsEqual(res.Rows, want) {
				t.Errorf("snapshot %d query diverges: %s", q.Snapshot, q.SQL)
			}
		}(q)
	}
	wg.Wait()
}

// TestDirtyLastRowTakesSlowPath is the boundary case of the
// Preprocessor's clean-page fast path (emitPage stamps one shared
// bit-vector on every row of a page no row of which carries xmin/xmax):
// a page whose ONLY versioned row is its last must still get per-query
// visibility. The appended row fills the last slot of the last page; a
// snapshot taken before its xmin must not count it, one taken after
// must, and both must match the reference executor.
func TestDirtyLastRowTakesSlowPath(t *testing.T) {
	rpp := dataset(t, 1).Lineorder.Heap.RowsPerPage()
	ds := dataset(t, 3*rpp-1) // two clean pages and a page one row short
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})

	qBefore := countAll(t, ds)
	if _, err := ds.AppendFact(1, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	qAfter := countAll(t, ds)
	if ds.Lineorder.Heap.NumRows() != int64(3*rpp) {
		t.Fatalf("fact table has %d rows, want %d full pages", ds.Lineorder.Heap.NumRows(), 3)
	}

	hBefore, err := p.Submit(qBefore)
	if err != nil {
		t.Fatal(err)
	}
	hAfter, err := p.Submit(qAfter)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *query.Bound
		h    core.Handle
		want int64
	}{
		{"before xmin", qBefore, hBefore, int64(3*rpp - 1)},
		{"after xmin", qAfter, hAfter, int64(3 * rpp)},
	} {
		res := c.h.Wait()
		if res.Err != nil {
			t.Fatal(c.name, res.Err)
		}
		want, err := ref.Execute(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("snapshot %s diverges from the reference: %v vs %v", c.name, res.Rows, want)
		}
		if got := res.Rows[0].Ints[0]; got != c.want {
			t.Fatalf("snapshot %s counts %d rows, want %d", c.name, got, c.want)
		}
	}
}
