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
	"cjoin/internal/fault"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// chaosGroup builds and starts a group with an armed fault spec.
func chaosGroup(t testing.TB, ds *ssb.Dataset, shards int, spec string, stall time.Duration) *shard.Group {
	t.Helper()
	fs, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := shard.New(ds.Star, shard.Config{
		Shards:       shards,
		Core:         core.Config{MaxConcurrent: 8, Workers: 2},
		Fault:        fs,
		StallTimeout: stall,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	return g
}

// waitDegraded blocks until the supervisor has quarantined a shard.
func waitDegraded(t testing.TB, g *shard.Group) core.Health {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if h := g.Health(); h.Degraded() {
			return h
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("group never entered degraded state: %+v", g.Health())
	return core.Health{}
}

// waitSlotsFree polls the plane down to zero slots in use.
func waitSlotsFree(t testing.TB, g *shard.Group) {
	t.Helper()
	pl := g.Plane()
	deadline := time.Now().Add(10 * time.Second)
	for pl.InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pl.InUse(); got != 0 {
		t.Fatalf("%d plane slots leaked", got)
	}
}

// expectShardFailed asserts the typed, retryable serving-tier error.
func expectShardFailed(t testing.TB, err error) *shard.ShardFailedError {
	t.Helper()
	var sfe *shard.ShardFailedError
	if !errors.As(err, &sfe) {
		t.Fatalf("error %v, want *shard.ShardFailedError", err)
	}
	if !sfe.Retryable() || sfe.HTTPStatus() != 503 || sfe.RetryAfter() <= 0 {
		t.Fatalf("shard failure contract: retryable=%v status=%d after=%v",
			sfe.Retryable(), sfe.HTTPStatus(), sfe.RetryAfter())
	}
	return sfe
}

// refRows executes the query against the reference engine and renders
// both result sets for exact comparison.
func assertParity(t testing.TB, b *query.Bound, got *core.QueryResult) {
	t.Helper()
	want, err := ref.Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.ResultsEqual(got.Rows, want) {
		t.Fatalf("results diverged from reference\n got %v\nwant %v", got.Rows, want)
	}
}

// TestChaosTransientAbsorbed is the positive control: a shard with a
// lossy (but healing) page source absorbs every fault in the
// page-boundary retry loop — queries stay parity-exact, health stays
// ok, and the merged stats record the absorbed retries.
func TestChaosTransientAbsorbed(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{})
	g := chaosGroup(t, ds, 4, "seed=7;shard=1;scan-err=0.08", 0)
	for i := 0; i < 4; i++ {
		b := bind(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year")
		h, err := g.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatalf("query %d failed through transient faults: %v", i, res.Err)
		}
		assertParity(t, b, &res)
		<-h.Done()
	}
	if h := g.Health(); h.State != "ok" {
		t.Fatalf("transient faults degraded the group: %+v", h)
	}
	if st := g.Stats(); st.ScanRetries == 0 {
		t.Fatal("no scan retries recorded despite scan-err=0.08")
	}
	waitSlotsFree(t, g)
}

// TestStridedShardFailure kills one shard of a page-strided group with a
// hard page failure: the in-flight query gets the typed retryable
// error, the supervisor quarantines the shard, and — since every shard
// of a strided group holds an interleaved slice of every query's pages —
// all new submissions fail fast with the same typed error while the
// daemon itself stays up.
func TestStridedShardFailure(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{})
	g := chaosGroup(t, ds, 4, "seed=3;shard=2;scan-fail=0", 0)

	b := bind(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey")
	h, err := g.Submit(b)
	if err != nil {
		// The failure can land before activation completes; either way
		// it must be typed.
		expectShardFailed(t, err)
	} else {
		res := h.Wait()
		sfe := expectShardFailed(t, res.Err)
		if sfe.Shard != 2 {
			t.Fatalf("failure attributed to shard %d, want 2", sfe.Shard)
		}
		var fe *fault.Error
		if !errors.As(res.Err, &fe) || !fe.Hard {
			t.Fatalf("cause %v does not carry the injected hard *fault.Error", res.Err)
		}
		<-h.Done()
	}

	health := waitDegraded(t, g)
	for _, sh := range health.Shards {
		want := core.ShardHealthy
		if sh.Shard == 2 {
			want = core.ShardFailed
		}
		if sh.State != want {
			t.Fatalf("shard %d state %q, want %q", sh.Shard, sh.State, want)
		}
	}

	// Strided topology: no query is feasible without shard 2. The
	// rejection is immediate (no activation), typed, and leaks nothing.
	_, err = g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if sfe := expectShardFailed(t, err); sfe.Shard != 2 {
		t.Fatalf("degraded rejection names shard %d, want 2", sfe.Shard)
	}
	waitSlotsFree(t, g)

	// Per-shard stats carry the terminal state for /stats.
	_, per := g.StatsWithShards()
	if per[2].State != core.ShardFailed || per[2].FailureCause == "" {
		t.Fatalf("shard 2 stats do not report the failure: %+v", per[2])
	}
	if per[0].State != core.ShardHealthy {
		t.Fatalf("surviving shard reported %q", per[0].State)
	}
}

// TestShardFailureNotHeldBySiblings: the group's handle delivers the
// first shard error as soon as the failed shard reports it, and cancels
// the healthy sibling — it does not wait for the sibling's own cycle.
// Over a throttled device, shard 1 of two dies at its third page read;
// the typed error must arrive, and shard 0 must recycle the slot, well
// inside the time a healthy query takes on the same device.
func TestShardFailureNotHeldBySiblings(t *testing.T) {
	ds := genDataset(t, 4000, disk.Config{SeqBytesPerSec: 256 << 10})
	const sql = "SELECT SUM(lo_revenue) AS rev FROM lineorder"

	healthy := startGroup(t, ds, 2)
	start := time.Now()
	h, err := healthy.Submit(bind(t, ds, sql))
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	cycle := time.Since(start)
	<-h.Done()
	healthy.Stop()

	g := chaosGroup(t, ds, 2, "seed=1;shard=1;scan-fail=2", 0)
	start = time.Now()
	h, err = g.Submit(bind(t, ds, sql))
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	failed := time.Since(start)
	if sfe := expectShardFailed(t, res.Err); sfe.Shard != 1 {
		t.Fatalf("failure attributed to shard %d, want 1", sfe.Shard)
	}
	if failed > cycle/4 {
		t.Fatalf("the shard error took %v to arrive; a healthy query takes %v", failed, cycle)
	}
	select {
	case <-h.Done():
	case <-time.After(cycle / 2):
		t.Fatalf("slot not recycled %v after submit: shard 0 was not canceled (healthy query: %v)", cycle/2, cycle)
	}
	waitSlotsFree(t, g)
}

// TestPartitionedDegradedServing is the graceful-degradation
// acceptance: on a partition-dealt group, losing one shard fails only
// the queries that need its partitions. Queries over surviving
// partitions keep completing parity-exact, infeasible ones get the
// typed retryable rejection, and the §5 pruning metadata is what
// decides which is which.
func TestPartitionedDegradedServing(t *testing.T) {
	ds := genPartitionedDataset(t, 2000, 4, disk.Config{})
	g := chaosGroup(t, ds, 4, "seed=5;shard=2;scan-fail=0", 0)

	// A full-table query needs shard 2's partitions: it trips the
	// injected hard failure and dies typed.
	b := bind(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year")
	if h, err := g.Submit(b); err != nil {
		expectShardFailed(t, err)
	} else {
		expectShardFailed(t, h.Wait().Err)
		<-h.Done()
	}
	waitDegraded(t, g)

	// Narrow single-key windows: keys living in surviving partitions
	// must complete exactly; keys in the dead shard's partitions must be
	// rejected typed — before any activation.
	served, rejected := 0, 0
	for _, k := range ds.DateKeys {
		b := bind(t, ds, fmt.Sprintf(
			"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year", k, k))
		h, err := g.Submit(b)
		if err != nil {
			if sfe := expectShardFailed(t, err); sfe.Shard != 2 {
				t.Fatalf("rejection names shard %d, want 2", sfe.Shard)
			}
			rejected++
			continue
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatalf("feasible query failed: %v", res.Err)
		}
		assertParity(t, b, &res)
		<-h.Done()
		served++
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("degraded serving not partial: %d served, %d rejected", served, rejected)
	}
	t.Logf("degraded mode: %d date keys served exactly, %d rejected retryable", served, rejected)

	// The full-table query is infeasible now and must be refused without
	// touching the pipelines.
	expectShardFailed(t, func() error {
		_, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		return err
	}())
	waitSlotsFree(t, g)
}

// TestDegradedRejectRetiresSlot pins the degraded-mode reject's own
// release: a query the survivors cannot answer exactly was admitted to
// the plane before the feasibility check, and the reject retires that
// slot before Submit returns — no run was activated, so nothing else
// would.
func TestDegradedRejectRetiresSlot(t *testing.T) {
	ds := genPartitionedDataset(t, 2000, 4, disk.Config{})
	g := chaosGroup(t, ds, 4, "seed=5;shard=2;scan-fail=0", 0)
	full := "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"
	if h, err := g.Submit(bind(t, ds, full)); err != nil {
		expectShardFailed(t, err)
	} else {
		expectShardFailed(t, h.Wait().Err)
		<-h.Done()
	}
	waitDegraded(t, g)
	waitSlotsFree(t, g)

	for i := 0; i < 3; i++ {
		before := g.PlaneStats()
		_, err := g.Submit(bind(t, ds, full))
		if sfe := expectShardFailed(t, err); sfe.Shard != 2 {
			t.Fatalf("rejection names shard %d, want 2", sfe.Shard)
		}
		st := g.PlaneStats()
		if st.Admits != before.Admits+1 {
			t.Fatalf("plane admits %d→%d: the reject did not come after an admission", before.Admits, st.Admits)
		}
		if st.InUse != 0 || g.Plane().InUse() != 0 {
			t.Fatalf("reject %d left %d plane slots held", i, g.Plane().InUse())
		}
	}
}

// TestStallSupervision arms a permanent scan stall on one shard: the
// supervisor's liveness check must declare it dead (StallError), fail
// the resident query with the typed error, and quarantine the shard —
// the stalled read itself is interrupted by the failure, so nothing
// leaks.
func TestStallSupervision(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{})
	g := chaosGroup(t, ds, 4, "seed=2;shard=2;scan-stall=30s@1", 250*time.Millisecond)

	h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	sfe := expectShardFailed(t, res.Err)
	if sfe.Shard != 2 {
		t.Fatalf("stall attributed to shard %d, want 2", sfe.Shard)
	}
	var se *shard.StallError
	if !errors.As(res.Err, &se) {
		t.Fatalf("cause %v does not carry *shard.StallError", res.Err)
	}
	if se.Stalled < 250*time.Millisecond {
		t.Fatalf("declared stalled after only %v", se.Stalled)
	}
	<-h.Done()
	waitDegraded(t, g)
	waitSlotsFree(t, g)
}

// TestCancelRacingShardFailure locks in the exactly-once slot-release
// guarantee under the worst interleaving: Handle.Cancel racing the
// failed pipeline's sweep of the same queries. A double release panics
// inside the plane (over-retire) or the slot allocator (double free); a
// leak fails the plane drain check. Run under -race in CI.
func TestCancelRacingShardFailure(t *testing.T) {
	ds := genDataset(t, 1500, disk.Config{SeqBytesPerSec: 16 << 20})
	for seed := 0; seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := chaosGroup(t, ds, 4, fmt.Sprintf("seed=%d;shard=1;scan-fail=%d", seed, seed%3), 0)
			rng := rand.New(rand.NewSource(int64(seed)))

			var hs []core.Handle
			for i := 0; i < 4; i++ {
				h, err := g.Submit(bind(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey"))
				if err != nil {
					expectShardFailed(t, err)
					continue
				}
				hs = append(hs, h)
			}
			// Cancel every handle from two goroutines each, at a random
			// delay, while shard 1's hard failure sweeps the same slots.
			var wg sync.WaitGroup
			for _, h := range hs {
				for c := 0; c < 2; c++ {
					wg.Add(1)
					go func(h core.Handle, d time.Duration) {
						defer wg.Done()
						time.Sleep(d)
						h.Cancel()
					}(h, time.Duration(rng.Intn(3000))*time.Microsecond)
				}
			}
			wg.Wait()
			for _, h := range hs {
				res := h.Wait()
				if res.Err == nil {
					t.Fatal("query reported success while racing cancel and shard failure")
				}
				<-h.Done()
			}
			waitSlotsFree(t, g)
			stopFreesSlots(t, g, nil)
		})
	}
}

// TestChaosChurnPartitioned is the full chaos churn: a partition-dealt
// group with a shard that first degrades (transient scan errors) and
// then dies mid-workload, under concurrent submission and cancellation
// churn. Every query must end in exactly one of: parity-exact success,
// clean cancellation, or the typed retryable shard failure — and the
// plane must drain to zero with every dimension store released. Run
// under -race in CI.
func TestChaosChurnPartitioned(t *testing.T) {
	ds := genPartitionedDataset(t, 2000, 4, disk.Config{SeqBytesPerSec: 32 << 20})
	g := chaosGroup(t, ds, 4, "seed=11;shard=3;scan-err=0.02;scan-fail=40", 0)
	runChaosChurn(t, ds, g, 3)
}

// TestChaosChurnStrided runs the same churn over a page-strided group:
// after the shard dies every submission is infeasible, so the test
// exercises the fail-fast rejection path under churn as well.
func TestChaosChurnStrided(t *testing.T) {
	ds := genDataset(t, 2000, disk.Config{SeqBytesPerSec: 32 << 20})
	// The kill lands a few scan cycles in (pages are counted
	// monotonically across cycles) so the first wave of queries
	// completes before the loss.
	g := chaosGroup(t, ds, 4, "seed=13;shard=1;scan-err=0.02;scan-fail=40", 0)
	runChaosChurn(t, ds, g, 1)
}

func runChaosChurn(t *testing.T, ds *ssb.Dataset, g *shard.Group, deadShard int) {
	t.Helper()
	const iters = 48
	keys := ds.DateKeys
	sem := make(chan struct{}, 6)
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	record := func(k string) { mu.Lock(); outcomes[k]++; mu.Unlock() }

	// Warm-up: one query completes before the armed kill page is
	// reached, so "survivors kept serving" is guaranteed, not timing-
	// dependent. The shared scan means the whole churn may ride a
	// handful of cycles — the kill can land anywhere inside it.
	warm := bind(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey")
	if h, err := g.Submit(warm); err != nil {
		t.Fatalf("warm-up rejected: %v", err)
	} else if res := h.Wait(); res.Err != nil {
		t.Fatalf("warm-up failed before the kill page: %v", res.Err)
	} else {
		assertParity(t, warm, &res)
		<-h.Done()
		record("served")
	}

	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(int64(i)))
			var sql string
			if i%3 == 0 {
				sql = "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"
			} else {
				lo := rng.Intn(len(keys) - 1)
				hi := lo + rng.Intn(len(keys)-lo-1) + 1
				sql = fmt.Sprintf(
					"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
					keys[lo], keys[hi])
			}
			b := bind(t, ds, sql)
			var h core.Handle
			var err error
			for {
				h, err = g.SubmitCtx(context.Background(), b)
				if !errors.Is(err, core.ErrTooManyQueries) {
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
			if err != nil {
				var sfe *shard.ShardFailedError
				if !errors.As(err, &sfe) {
					t.Errorf("submit %d: untyped error %v", i, err)
					return
				}
				if !sfe.Retryable() {
					t.Errorf("submit %d: shard failure not retryable", i)
				}
				record("rejected")
				return
			}
			if i%4 == 1 {
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				h.Cancel()
			}
			res := h.Wait()
			<-h.Done()
			switch {
			case res.Err == nil:
				assertParity(t, b, &res)
				record("served")
			case errors.Is(res.Err, core.ErrQueryCanceled):
				record("canceled")
			default:
				var sfe *shard.ShardFailedError
				if !errors.As(res.Err, &sfe) {
					t.Errorf("query %d: untyped failure %v", i, res.Err)
					return
				}
				record("shard-failed")
			}
		}(i)
	}
	wg.Wait()

	// If the churn rode too few scan cycles to reach the kill page,
	// keep the scan moving until the injected failure lands.
	for drive := 0; drive < 400 && !g.Health().Degraded(); drive++ {
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			expectShardFailed(t, err)
			record("rejected")
			break
		}
		res := h.Wait()
		<-h.Done()
		if res.Err != nil {
			expectShardFailed(t, res.Err)
			record("shard-failed")
		}
	}

	g.Quiesce()
	waitSlotsFree(t, g)
	pl := g.Plane()
	for d := 0; d < pl.NumDims(); d++ {
		st := pl.Store(d)
		if st.Len() != 0 || st.RefCount() != 0 {
			t.Fatalf("dimension %d not released after chaos churn: len=%d refs=%d", d, st.Len(), st.RefCount())
		}
	}
	h := g.Health()
	if !h.Degraded() {
		t.Fatalf("shard %d never died during churn: %+v (outcomes %v)", deadShard, h, outcomes)
	}
	if h.Shards[deadShard].State != core.ShardFailed {
		t.Fatalf("wrong shard quarantined: %+v", h.Shards)
	}
	if outcomes["served"] == 0 {
		t.Fatalf("no query served through the chaos: %v", outcomes)
	}
	if outcomes["shard-failed"]+outcomes["rejected"] == 0 {
		t.Fatalf("shard death never surfaced to a query: %v", outcomes)
	}
	t.Logf("chaos churn outcomes: %v", outcomes)
	stopFreesSlots(t, g, nil)
}
