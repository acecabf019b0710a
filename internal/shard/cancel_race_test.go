package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// runCancelChurn abandons queries at random points — before activation
// (a pre-canceled context), mid-admission (a context canceled
// concurrently with SubmitCtx), and mid-flight (Handle.Cancel at a
// random delay, racing both the scan and a concurrent duplicate Cancel).
// Each query's slot and bit-vector column must be released exactly once
// across all shards: a double release panics inside the plane
// (over-retire) or the slot allocator (double free), and a leak shows up
// as a non-empty plane after quiescing. Run under -race in CI.
func runCancelChurn(t *testing.T, ds *ssb.Dataset, g *shard.Group, sqlFor func(i int, rng *rand.Rand) string) {
	t.Helper()
	const iters = 60
	// Gate concurrency below maxConc (8). Canceled queries release their
	// plane slot asynchronously — at the next page boundary, once every
	// shard's cleanup has retired its hold — so admission can still see
	// a transiently full plane; submits retry through that. A double
	// release, by contrast, panics immediately (plane over-retire or
	// allocator double-free), and a leak fails the end-state checks.
	sem := make(chan struct{}, 6)
	submitRetry := func(ctx context.Context, b *query.Bound) (core.Handle, error) {
		for {
			h, err := g.SubmitCtx(ctx, b)
			if !errors.Is(err, core.ErrTooManyQueries) {
				return h, err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(int64(i)))
			b := bind(t, ds, sqlFor(i, rng))
			switch i % 3 {
			case 0:
				// Canceled before admission: no slot may be consumed.
				// (A transiently full plane short-circuits before the
				// context check; both errors are acceptable.)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := g.SubmitCtx(ctx, b); !errors.Is(err, context.Canceled) &&
					!errors.Is(err, core.ErrTooManyQueries) {
					t.Errorf("pre-canceled submit: %v", err)
				}
			case 1:
				// Canceled concurrently with admission/activation: either
				// outcome is fine, but an admitted query must still
				// deliver and release.
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					cancel()
				}()
				h, err := submitRetry(ctx, b)
				cancel()
				if err != nil {
					return
				}
				h.Cancel()
				<-h.Done()
			default:
				// Canceled mid-flight, racing a duplicate Cancel.
				h, err := submitRetry(context.Background(), b)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				wins := make(chan bool, 2)
				var cwg sync.WaitGroup
				for c := 0; c < 2; c++ {
					cwg.Add(1)
					go func() { defer cwg.Done(); wins <- h.Cancel() }()
				}
				cwg.Wait()
				// At most one Cancel call may win; none, if the query
				// finished first.
				if <-wins && <-wins {
					t.Error("both Cancel calls claimed the cancellation")
				}
				<-h.Done()
			}
		}(i)
	}
	wg.Wait()

	g.Quiesce()
	pl := g.Plane()
	// Quiesce tracks pipeline registration; the final plane retire can
	// trail it by a hair, so poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for pl.InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if pl.InUse() != 0 {
		t.Fatalf("%d plane slots leaked after churn", pl.InUse())
	}
	for d := 0; d < pl.NumDims(); d++ {
		st := pl.Store(d)
		if st.Len() != 0 || st.RefCount() != 0 {
			t.Fatalf("dimension %d not released: len=%d refs=%d", d, st.Len(), st.RefCount())
		}
	}
	// The plane must still be fully serviceable: fill every slot again.
	var hs []core.Handle
	for i := 0; i < g.MaxConcurrent(); i++ {
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			t.Fatalf("slot %d not reusable after churn: %v", i, err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if res := h.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		<-h.Done()
	}
	// Stop with queries in flight: the stop sweep frees their slots.
	hs = hs[:0]
	for i := 0; i < g.MaxConcurrent()/2; i++ {
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	stopFreesSlots(t, g, hs)
}

// stopFreesSlots stops the group and checks that its stop sweep settled
// every handle in hs and that no plane slot is left held.
func stopFreesSlots(t testing.TB, g *shard.Group, hs []core.Handle) {
	t.Helper()
	g.Stop()
	for i, h := range hs {
		select {
		case <-h.Done():
		default:
			t.Fatalf("handle %d not settled after Stop", i)
		}
	}
	if got := g.Plane().InUse(); got != 0 {
		t.Fatalf("%d plane slots held after Stop", got)
	}
}

// TestStopFreesInFlightSlots stops a group while its queries are still
// scanning: the stop sweep reports ErrPipelineStopped to every query,
// settles every handle, and each query's handle retires its one plane
// slot, so a clean Stop leaves no slot held.
func TestStopFreesInFlightSlots(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{SeqBytesPerSec: 256 << 10})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := startGroup(t, ds, shards)
			var hs []core.Handle
			for i := 0; i < 3; i++ {
				h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"))
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
			if got := g.Plane().InUse(); got != len(hs) {
				t.Fatalf("%d plane slots held before Stop, want %d", got, len(hs))
			}
			stopFreesSlots(t, g, hs)
			for i, h := range hs {
				if err := h.Wait().Err; !errors.Is(err, core.ErrPipelineStopped) {
					t.Fatalf("query %d after Stop: %v, want ErrPipelineStopped", i, err)
				}
			}
		})
	}
}

// TestSharedPlaneCancelChurn is the cancellation stress test for the
// shared dimension plane over a page-strided (unpartitioned) group.
func TestSharedPlaneCancelChurn(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{SeqBytesPerSec: 32 << 20})
	g := startGroup(t, ds, 4)
	sql := "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"
	runCancelChurn(t, ds, g, func(int, *rand.Rand) string { return sql })
}

// TestSharedPlaneAdmitOnce pins the admit-once invariant numerically:
// one logical query over a 4-shard group performs exactly one plane
// admission and stores one copy of its dimension selection, however many
// shards probe it.
func TestSharedPlaneAdmitOnce(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{SeqBytesPerSec: 16 << 20})
	g := startGroup(t, ds, 4)
	h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993"))
	if err != nil {
		t.Fatal(err)
	}
	st := g.Plane().Stats()
	if st.Admits != 1 {
		t.Fatalf("plane admissions = %d, want 1 for one logical query", st.Admits)
	}
	if got := g.Plane().InUse(); got != 1 {
		t.Fatalf("slots in use = %d, want 1", got)
	}
	if ps := g.PlaneStats(); ps.Admits != 1 {
		t.Fatalf("executor plane stats: admits=%d, want 1", ps.Admits)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	<-h.Done()
	if got := g.Plane().InUse(); got != 0 {
		t.Fatalf("slot not recycled after completion: %d in use", got)
	}
}

// TestPartitionedAdmitOnce is the same invariant over a partition-dealt
// group: dealing partitions must not change the admit-once lifecycle.
func TestPartitionedAdmitOnce(t *testing.T) {
	ds := genPartitionedDataset(t, 1500, 4, disk.Config{SeqBytesPerSec: 16 << 20})
	g := startGroup(t, ds, 4)
	h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993"))
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Plane().Stats(); st.Admits != 1 {
		t.Fatalf("partitioned group: admits=%d, want 1", st.Admits)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	<-h.Done()
	if got := g.Plane().InUse(); got != 0 {
		t.Fatalf("slot not recycled after completion: %d in use", got)
	}
}

// TestPartitionedPlaneCancelChurn runs the same churn over a
// partition-dealt group, with randomized date windows so cancellation
// races the pruned completion path too: queries that finish instantly on
// a shard whose dealt partitions are all pruned, queries mid-countdown,
// and queries spanning every partition. Slot lifecycle must stay
// exactly-once across all of them. Run under -race in CI.
func TestPartitionedPlaneCancelChurn(t *testing.T) {
	ds := genPartitionedDataset(t, 1500, 4, disk.Config{SeqBytesPerSec: 32 << 20})
	g := startGroup(t, ds, 4)
	keys := ds.DateKeys
	runCancelChurn(t, ds, g, func(i int, rng *rand.Rand) string {
		switch i % 4 {
		case 0:
			// Unrestricted: every partition on every shard.
			return "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"
		case 1:
			// Empty key range: zero partitions, instant completion racing
			// the cancel.
			return "SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 1 AND 2"
		default:
			lo := rng.Intn(len(keys) - 1)
			hi := lo + rng.Intn(len(keys)-lo-1) + 1
			return fmt.Sprintf(
				"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
				keys[lo], keys[hi])
		}
	})
}
