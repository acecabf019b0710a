package shard_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

func genDataset(t testing.TB, rows int, dc disk.Config) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 3, Disk: dc})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func startGroup(t testing.TB, ds *ssb.Dataset, shards int) *shard.Group {
	t.Helper()
	return openGroup(t, ds, shards, core.Config{MaxConcurrent: 8, Workers: 2})
}

// openGroup starts a group of the given shard count; one shard is the
// single-pipeline reference the parity suites compare against.
func openGroup(t testing.TB, ds *ssb.Dataset, shards int, ccfg core.Config) *shard.Group {
	t.Helper()
	g, err := shard.New(ds.Star, shard.Config{Shards: shards, Core: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	return g
}

func bind(t testing.TB, ds *ssb.Dataset, sql string) *query.Bound {
	t.Helper()
	b, err := query.ParseBind(sql, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	b.Snapshot = ds.Txn.Begin()
	return b
}

// TestStridedCoverage verifies the fact partitioning is exact: the page
// counts of the N strided shards sum to the base page count, and a
// COUNT(*) broadcast over the shards sees every fact row exactly once.
func TestStridedCoverage(t *testing.T) {
	ds := genDataset(t, 2500, disk.Config{})
	total := ds.Lineorder.Heap.NumPages()
	for _, n := range []int{1, 2, 3, 4, 7} {
		g := startGroup(t, ds, n)
		if got := g.NumShards(); got != n && !(n == 1 && got == 1) {
			t.Fatalf("NumShards = %d, want %d", got, n)
		}
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Ints[0] != ds.Lineorder.Heap.NumRows() {
			t.Fatalf("%d shards: COUNT(*) = %v, want %d rows counted", n, res.Rows, ds.Lineorder.Heap.NumRows())
		}
		if n > 1 {
			// Pages charged across shards must cover the heap exactly once.
			if got := h.PagesScanned(); got != int64(total) {
				t.Fatalf("%d shards: %d pages charged, heap has %d", n, got, total)
			}
		}
	}
}

// TestGroupHandleObservability checks the merged progress/ETA/slot
// surface of a broadcast query.
func TestGroupHandleObservability(t *testing.T) {
	// Throttle the scan so progress is observable mid-flight.
	ds := genDataset(t, 2000, disk.Config{SeqBytesPerSec: 8 << 20})
	g := startGroup(t, ds, 4)
	h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Slot() < 0 || h.Slot() >= g.MaxConcurrent() {
		t.Fatalf("slot %d out of range", h.Slot())
	}
	if h.Submission() <= 0 {
		t.Fatal("submission time not recorded")
	}
	sawPartial := false
	for i := 0; i < 200; i++ {
		p := h.Progress()
		if p < 0 || p > 1 {
			t.Fatalf("progress %v out of [0,1]", p)
		}
		if p > 0 && p < 1 {
			sawPartial = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sawPartial {
		t.Log("scan finished before partial progress was observed (fast machine); progress bounds still verified")
	}
	if eta, ok := h.ETA(); !ok || eta != 0 {
		t.Fatalf("post-completion ETA = (%v, %v), want (0, true)", eta, ok)
	}
	<-h.Done()
	if g.ActiveQueries() != 0 {
		t.Fatalf("%d active queries after Done", g.ActiveQueries())
	}
}

// TestGroupCancel verifies a broadcast cancel delivers immediately and
// frees every shard's slot for reuse.
func TestGroupCancel(t *testing.T) {
	ds := genDataset(t, 2000, disk.Config{SeqBytesPerSec: 4 << 20})
	g := startGroup(t, ds, 3)
	b := bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder")
	h, err := g.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false on a fresh query")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	res := h.Wait()
	if !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("canceled query result: %v", res.Err)
	}
	<-h.Done()
	// Every slot must be free again: fill the group to capacity.
	var hs []core.Handle
	for i := 0; i < g.MaxConcurrent(); i++ {
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			t.Fatalf("slot %d not recycled: %v", i, err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if res := h.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestGroupBehindAdmissionQueue runs the serving-tier composition: more
// queries than maxConc through an admission.Queue over a 4-shard Group —
// the exact wiring cjoind -shards uses — at every batch cap, including
// the caps of one. Nothing may be rejected and every query must
// complete.
func TestGroupBehindAdmissionQueue(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{})
	for _, batch := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("BatchAdmit=%d", batch), func(t *testing.T) {
			g := openGroup(t, ds, 4, core.Config{MaxConcurrent: 4, Workers: 2})
			q := admission.NewQueue(g, admission.Config{MaxQueue: 64, BatchAdmit: batch})

			const n = 16 // 4x capacity
			w := ssb.NewWorkload(ds, 0.1, 9)
			var wg sync.WaitGroup
			errCh := make(chan error, n)
			for i := 0; i < n; i++ {
				_, text := w.Next()
				tk, err := q.Submit(bind(t, ds, text))
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if res := tk.Wait(); res.Err != nil {
						errCh <- res.Err
					}
				}()
			}
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			st := q.Stats()
			if st.Rejected != 0 || st.Completed != n {
				t.Fatalf("queue stats: %+v", st)
			}
			if err := q.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupStats verifies merged and per-shard counters are consistent
// and race-free against concurrent queries and shutdown.
func TestGroupStats(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{})
	g := startGroup(t, ds, 4)
	h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	// Hammer Stats while the query runs and while the group stops.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = g.Stats()
				_ = g.ShardStats()
			}
		}
	}()
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	<-h.Done()
	st := g.Stats()
	per := g.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats has %d entries", len(per))
	}
	var pages int64
	for _, s := range per {
		pages += s.PagesRead
	}
	if st.PagesRead != pages {
		t.Fatalf("merged PagesRead %d != per-shard sum %d", st.PagesRead, pages)
	}
	if st.PagesRead < int64(ds.Lineorder.Heap.NumPages()) {
		t.Fatalf("PagesRead %d < heap pages %d", st.PagesRead, ds.Lineorder.Heap.NumPages())
	}
	close(stop)
	wg.Wait()
}

// The former TestPartitionedStarRejected is superseded: partitioned
// stars now shard by partition dealing (see partition_test.go;
// TestPartitionedDegenerateRejected keeps the typed-422 contract for the
// one remaining rejection, shards > partitions).

// TestDeliveredHandleRetainsNoRows: the server keeps a finished query's
// handle for status lookups, so once Wait has delivered the merged rows
// the handle must not keep them, or the shards' partials, reachable.
func TestDeliveredHandleRetainsNoRows(t *testing.T) {
	ds := genDataset(t, 2000, disk.Config{})
	for _, shards := range []int{1, 2} {
		g := startGroup(t, ds, shards)
		h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"))
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil || len(res.Rows) == 0 {
			t.Fatalf("shards=%d: %d rows, err %v", shards, len(res.Rows), res.Err)
		}
		<-h.Done()
		row := weak.Make(&res.Rows[0])
		res = core.QueryResult{}
		runtime.GC()
		if row.Value() != nil {
			t.Fatalf("shards=%d: the handle still holds the delivered rows", shards)
		}
		runtime.KeepAlive(h)
	}
}
