package server_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/disk"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

// factRow builds one valid visible-column lineorder row whose foreign
// keys resolve, so the row participates in joins once visible.
func factRow(ds *ssb.Dataset, i int) []any {
	return []any{
		int64(9_000_000 + i), // lo_orderkey
		int64(1),             // lo_linenumber
		int64(i%int(ds.NumCustomers) + 1),
		int64(i%int(ds.NumParts) + 1),
		int64(i%int(ds.NumSuppliers) + 1),
		ds.DateKeys[i%len(ds.DateKeys)],
		"1-URGENT",   // lo_orderpriority
		int64(0),     // lo_shippriority
		int64(10),    // lo_quantity
		int64(1000),  // lo_extendedprice
		int64(10000), // lo_ordtotalprice
		int64(3),     // lo_discount
		int64(970),   // lo_revenue
		int64(600),   // lo_supplycost
		int64(4),     // lo_tax
		ds.DateKeys[i%len(ds.DateKeys)],
		"AIR", // lo_shipmode
	}
}

func countAll(ctx context.Context, t *testing.T, env *testEnv) int64 {
	t.Helper()
	res, err := env.cl.Exec(ctx, "SELECT COUNT(*) AS n FROM lineorder")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	n, err := res.Rows[0][0].(interface{ Int64() (int64, error) }).Int64()
	if err != nil {
		t.Fatalf("count cell: %v", err)
	}
	return n
}

// TestUpdateEndToEnd drives the write plane over HTTP: appends and a
// delete become visible to queries submitted after their commit, failed
// commits publish no snapshot (the next successful commit reuses the
// id), and the write-plane metric families appear on /metrics.
func TestUpdateEndToEnd(t *testing.T) {
	env := startServer(t, 900, 4, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	n0 := countAll(ctx, t, env)
	if n0 != 900 {
		t.Fatalf("initial count = %d, want 900", n0)
	}

	// Append 3 rows in one commit.
	rows := [][]any{factRow(env.ds, 0), factRow(env.ds, 1), factRow(env.ds, 2)}
	ap, err := env.cl.AppendFacts(ctx, rows)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ap.RowsAffected != 3 || ap.Snapshot == 0 {
		t.Fatalf("append response %+v", ap)
	}
	if got := countAll(ctx, t, env); got != n0+3 {
		t.Fatalf("count after append = %d, want %d", got, n0+3)
	}

	// Delete one of the appended rows.
	del, err := env.cl.DeleteFact(ctx, int64(n0)) // first appended row
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if del.Snapshot != ap.Snapshot+1 {
		t.Fatalf("delete snapshot = %d, want %d", del.Snapshot, ap.Snapshot+1)
	}
	if got := countAll(ctx, t, env); got != n0+2 {
		t.Fatalf("count after delete = %d, want %d", got, n0+2)
	}

	// Failed commits publish nothing: an out-of-range delete, a repeated
	// delete of the same row, and an undecodable append all error, and
	// the next successful commit's snapshot shows no id was burned.
	if _, err := env.cl.DeleteFact(ctx, 1<<40); err == nil {
		t.Fatal("out-of-range delete succeeded")
	}
	if _, err := env.cl.DeleteFact(ctx, int64(n0)); err == nil {
		t.Fatal("double delete succeeded")
	} else if !strings.Contains(err.Error(), "already deleted") {
		t.Fatalf("double delete error = %v", err)
	}
	if _, err := env.cl.AppendFacts(ctx, [][]any{{int64(1)}}); err == nil {
		t.Fatal("short append row succeeded")
	}
	ap2, err := env.cl.AppendFacts(ctx, [][]any{factRow(env.ds, 3)})
	if err != nil {
		t.Fatalf("append after failures: %v", err)
	}
	if ap2.Snapshot != del.Snapshot+1 {
		t.Fatalf("snapshot after failed commits = %d, want %d (failed commits must not advance)", ap2.Snapshot, del.Snapshot+1)
	}

	// Write-plane telemetry is live.
	metrics, err := env.cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`cjoin_commits_total{kind="append"} 2`,
		`cjoin_commits_total{kind="delete"} 1`,
		"cjoin_commit_errors_total 3",
		"cjoin_commit_seconds_count 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// date1992 returns the heap index and key of a date row from 1992.
func date1992(t *testing.T, ds *ssb.Dataset) (row, key int64) {
	t.Helper()
	dyear := ds.Date.ColIndex("d_year")
	dkey := ds.Date.ColIndex("d_datekey")
	for i := int64(0); i < ds.Date.Heap.NumRows(); i++ {
		r, err := ds.Date.Heap.RowAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if r[dyear] == 1992 {
			return i, r[dkey]
		}
	}
	t.Fatal("no 1992 date row")
	return 0, 0
}

// TestUpdateDimensionInvalidatesCache pins the COW republish: a
// dimension-value update must make the plane's memoized predicate scans
// of that dimension stale, or a repeated query template would be
// admitted with a stale bit-vector. The rewrite moves the heap's version,
// which the cache checks; no writer touches the plane.
func TestUpdateDimensionInvalidatesCache(t *testing.T) {
	env := startServer(t, 900, 4, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Find a date row from 1992 and measure how many fact rows cite it.
	row, key := date1992(t, env.ds)
	count := func(sql string) int64 {
		res, err := env.cl.Exec(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		n, _ := res.Rows[0][0].(interface{ Int64() (int64, error) }).Int64()
		return n
	}
	sql93 := "SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993"
	before := count(sql93)
	onKey := count(fmt.Sprintf("SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d", key, key))
	if onKey == 0 {
		t.Fatalf("datekey %d unreferenced; pick a bigger dataset", key)
	}

	// Move the date row into 1993. The same query template re-submitted
	// must see the moved rows — it only can if the predicate-scan cache
	// entry built for `before` was invalidated.
	up, err := env.cl.UpdateDimension(ctx, "date", "d_year", row, 1993)
	if err != nil {
		t.Fatalf("dim-update: %v", err)
	}
	if up.RowsAffected != 1 {
		t.Fatalf("dim-update response %+v", up)
	}
	if after := count(sql93); after != before+onKey {
		t.Fatalf("1993 count after dim-update = %d, want %d (stale predicate-scan cache?)", after, before+onKey)
	}

	// Join-key updates are rejected: the dimension hash tables are built
	// once at pipeline construction.
	if _, err := env.cl.UpdateDimension(ctx, "date", "d_datekey", row, 99999999); err == nil {
		t.Fatal("join-key update succeeded")
	}

	metrics, err := env.cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`cjoin_commits_total{kind="dim_update"} 1`,
		"cjoin_dimcache_invalidations_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestUpdateShardedSharedHeap sends writes through a sharded group: the
// strided per-shard sources read the same shared heap, so a commit is
// visible to queries on every shard.
func TestUpdateShardedSharedHeap(t *testing.T) {
	env := startServerSharded(t, 900, 4, 2, 0, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	n0 := countAll(ctx, t, env)
	ap, err := env.cl.AppendFacts(ctx, [][]any{factRow(env.ds, 0), factRow(env.ds, 1)})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ap.RowsAffected != 2 {
		t.Fatalf("append response %+v", ap)
	}
	if got := countAll(ctx, t, env); got != n0+2 {
		t.Fatalf("sharded count after append = %d, want %d", got, n0+2)
	}
	if _, err := env.cl.DeleteFact(ctx, 0); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := countAll(ctx, t, env); got != n0+1 {
		t.Fatalf("sharded count after delete = %d, want %d", got, n0+1)
	}
}

// TestUpdatePartitionedStarRejected pins the §5 static regime: a
// range-partitioned deployment answers 422 to fact writes and publishes
// no snapshot.
func TestUpdatePartitionedStarRejected(t *testing.T) {
	env := startServerSharded(t, 900, 4, 2, 4, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	_, err := env.cl.AppendFacts(ctx, [][]any{factRow(env.ds, 0)})
	apiErr, ok := err.(interface{ Error() string })
	if !ok {
		t.Fatalf("partitioned append error = %v", err)
	}
	if !strings.Contains(apiErr.Error(), "static") || !strings.Contains(apiErr.Error(), "422") {
		t.Fatalf("partitioned append error = %v, want 422 static-star rejection", err)
	}
	if env.ds.Txn.Begin() != 0 {
		t.Fatalf("rejected write advanced the snapshot to %d", env.ds.Txn.Begin())
	}
}

// TestBatchDispatchKeepsSubmitSnapshot is the bugfix guard for
// handleSubmit's `b.Snapshot = s.txm.Begin()` placement: a query that
// queues before a commit but is batch-dispatched after it must evaluate
// at its submit-time snapshot. If the snapshot were stamped at batch
// dispatch instead, the queued COUNTs below would see the committed
// writes.
func TestBatchDispatchKeepsSubmitSnapshot(t *testing.T) {
	// ~170 KB of fact pages at 128 KB/s: a full scan cycle takes >1 s,
	// so the blockers reliably hold both slots while the COUNTs queue
	// and the commit lands.
	env := startServer(t, 1200, 2, disk.Config{SeqBytesPerSec: 128 << 10}, admission.Config{MaxQueue: 64, BatchAdmit: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Fill both pipeline slots with slow full scans.
	blockers := make([]*client.Query, 2)
	for i := range blockers {
		q, err := env.cl.Submit(ctx, "SELECT SUM(lo_revenue) AS rev FROM lineorder")
		if err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
		blockers[i] = q
	}

	// Three COUNTs queue behind them; their snapshots are stamped now.
	counts := make([]*client.Query, 3)
	for i := range counts {
		q, err := env.cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder")
		if err != nil {
			t.Fatalf("count %d: %v", i, err)
		}
		st, err := q.Status(ctx)
		if err != nil {
			t.Fatalf("status %d: %v", i, err)
		}
		if st.State != "queued" {
			t.Fatalf("count %d state = %q before commit, want queued (blockers finished too fast)", i, st.State)
		}
		counts[i] = q
	}

	// Commit while they wait: 5 appends and 1 delete.
	rows := make([][]any, 5)
	for i := range rows {
		rows[i] = factRow(env.ds, i)
	}
	if _, err := env.cl.AppendFacts(ctx, rows); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := env.cl.DeleteFact(ctx, 7); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// The queued COUNTs dispatch (in a batch) once the blockers finish —
	// after the commit — yet must answer at their submit-time snapshot.
	for i, q := range counts {
		res, err := q.Result(ctx)
		if err != nil || res.Error != "" {
			t.Fatalf("count %d: %v %s", i, err, res.Error)
		}
		n, _ := res.Rows[0][0].(interface{ Int64() (int64, error) }).Int64()
		if n != 1200 {
			t.Fatalf("queued count %d = %d, want 1200 (submit-time snapshot leaked to %s)", i, n, "batch dispatch")
		}
	}
	for i, q := range blockers {
		if res, err := q.Result(ctx); err != nil || res.Error != "" {
			t.Fatalf("blocker %d: %v %s", i, err, res.Error)
		}
	}
	// A query submitted now sees the commit: +5 appends, -1 delete.
	if got := countAll(ctx, t, env); got != 1200+5-1 {
		t.Fatalf("post-commit count = %d, want %d", got, 1200+5-1)
	}
}

// TestDimensionWriteIsolation pins the isolation dimension writes get
// (README, "Dimension-write isolation"). A dim-update rewrites the heap
// in place and unversioned, so a query joins dimension values as of its
// plane admission, not as of its snapshot: one submitted before the
// rewrite but admitted after it sees the new value, while one already
// resident keeps the bit-vectors it was admitted with. Fact visibility
// stays at each query's snapshot either way.
func TestDimensionWriteIsolation(t *testing.T) {
	// The blockers of TestBatchDispatchKeepsSubmitSnapshot: a full scan
	// cycle takes >1 s, so two resident queries hold both slots while a
	// third queues and the commits land.
	env := startServer(t, 1200, 2, disk.Config{SeqBytesPerSec: 128 << 10}, admission.Config{MaxQueue: 64, BatchAdmit: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	row, key := date1992(t, env.ds)
	sql93 := "SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993"
	submit := func(sql string) *client.Query {
		q, err := env.cl.Submit(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return q
	}
	count := func(q *client.Query) int64 {
		res, err := q.Result(ctx)
		if err != nil || res.Error != "" {
			t.Fatalf("result: %v %s", err, res.Error)
		}
		n, _ := res.Rows[0][0].(interface{ Int64() (int64, error) }).Int64()
		return n
	}
	// One shared cycle measures the 1993 count and the moved key's rows.
	q93 := submit(sql93)
	qKey := submit(fmt.Sprintf("SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d", key, key))
	before, onKey := count(q93), count(qKey)
	if onKey == 0 {
		t.Fatalf("datekey %d unreferenced; pick a bigger dataset", key)
	}

	// resident is admitted before the commits; queued waits behind it.
	resident := submit(sql93)
	blocker := submit("SELECT SUM(lo_revenue) AS rev FROM lineorder")
	for _, q := range []*client.Query{resident, blocker} {
		for {
			st, err := q.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == "running" {
				break
			}
			if st.State != "queued" && st.State != "admitting" {
				t.Fatalf("blocker state = %q before the commits, want running (finished too fast)", st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	queued := submit(sql93)
	if st, err := queued.Status(ctx); err != nil || st.State != "queued" {
		t.Fatalf("queued state = %+v, %v before the commits, want queued", st, err)
	}

	// A fact row on the moved key (invisible to queued's snapshot), then
	// the rewrite of that key's year into 1993.
	fr := factRow(env.ds, 0)
	fr[5] = key // lo_orderdate
	if _, err := env.cl.AppendFacts(ctx, [][]any{fr}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := env.cl.UpdateDimension(ctx, "date", "d_year", row, 1993); err != nil {
		t.Fatalf("dim-update: %v", err)
	}

	if got := count(resident); got != before {
		t.Fatalf("resident query = %d, want %d (its admitted bit-vectors must not change)", got, before)
	}
	if got := count(queued); got != before+onKey {
		t.Fatalf("queued query = %d, want %d (the dimension value as of admission, the facts as of its snapshot)", got, before+onKey)
	}
	count(blocker)
	if got := count(submit(sql93)); got != before+onKey+1 {
		t.Fatalf("post-commit query = %d, want %d", got, before+onKey+1)
	}
}
