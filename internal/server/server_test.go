package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

type testEnv struct {
	ds   *ssb.Dataset
	exec core.Executor
	srv  *server.Server
	ts   *httptest.Server
	cl   *client.Client
	reg  *obs.Registry
}

func startServer(t testing.TB, rows, maxConc int, dc disk.Config, acfg admission.Config) *testEnv {
	return startServerSharded(t, rows, maxConc, 1, 0, dc, acfg)
}

// startServerSharded runs the service layer over a group of `shards`
// pipelines — the same wiring cjoind -shards uses. parts > 1
// range-partitions the fact table, so the group deals whole partitions
// instead of striding pages.
func startServerSharded(t testing.TB, rows, maxConc, shards, parts int, dc disk.Config, acfg admission.Config) *testEnv {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 11, Partitions: parts, Disk: dc})
	if err != nil {
		t.Fatal(err)
	}
	// Every server test runs with the telemetry plane on — the cjoind
	// default — so the instrumented hot paths are what the suite covers.
	reg := obs.NewRegistry()
	g, err := shard.New(ds.Star, shard.Config{Shards: shards, Core: core.Config{MaxConcurrent: maxConc, Workers: 2}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	srv := server.New(ds.Star, ds.Txn, g, server.Config{Admission: acfg, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{ds: ds, exec: g, srv: srv, ts: ts, cl: client.New(ts.URL), reg: reg}
}

// workloadSQL renders n workload queries whose dimension predicates each
// select a fraction s of their dimension. At s = 1 every predicate
// selects every key, so nothing prunes and each query is a full scan.
func workloadSQL(t testing.TB, ds *ssb.Dataset, n int, s float64) []string {
	t.Helper()
	w := ssb.NewWorkload(ds, s, 5)
	out := make([]string, n)
	for i := range out {
		_, out[i] = w.Next()
	}
	return out
}

// renderRows normalizes decoded rows (server-side [][]any with
// int64/float64/string vs client-side json.Number/string) to strings for
// comparison.
func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		line := ""
		for _, cell := range row {
			line += fmt.Sprintf("|%v", cell)
		}
		out[i] = line
	}
	return out
}

// TestEndToEndOverload is the PR's acceptance scenario: more queries than
// maxConc through the HTTP client; none rejected, every result equal to a
// direct in-process execution, monotone progress with a finite ETA, and
// cancellation of both a queued and a running query freeing their slots.
func TestEndToEndOverload(t *testing.T) {
	const maxConc = 4
	// ~20 MB/s over ~170 KB of fact pages: a scan cycle takes ~10 ms,
	// slow enough to observe progress, fast enough for CI.
	env := startServer(t, 1200, maxConc, disk.Config{SeqBytesPerSec: 20 << 20}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// (a) 3x maxConc queries: all accepted, all correct. They are full
	// scans: narrow workload windows would prune the scan down to a
	// couple of pages and queries would finish before their queued and
	// mid-flight states can be observed over HTTP. This test pins
	// serving-tier observability on full scans; pruned charges have
	// their own end-to-end tests.
	sqls := workloadSQL(t, env.ds, 3*maxConc, 1)
	queries := make([]*client.Query, len(sqls))
	for i, sqlText := range sqls {
		q, err := env.cl.Submit(ctx, sqlText)
		if err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Result(ctx)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Error != "" {
			t.Fatalf("query %d (%s) failed: %s", i, q.ID, res.Error)
		}
		b, err := query.ParseBind(sqls[i], env.ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := renderRows(server.DecodeResults(b, want))
		gotRows := renderRows(res.Rows)
		if len(gotRows) != len(wantRows) {
			t.Fatalf("query %d: %d rows, reference %d", i, len(gotRows), len(wantRows))
		}
		for r := range gotRows {
			if gotRows[r] != wantRows[r] {
				t.Fatalf("query %d row %d:\n got %s\nwant %s", i, r, gotRows[r], wantRows[r])
			}
		}
	}
	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Rejected != 0 || st.Admission.Completed < int64(len(sqls)) {
		t.Fatalf("admission stats: %+v", st.Admission)
	}
	if st.Admission.MaxDepth == 0 {
		t.Fatal("expected queueing at 3x capacity")
	}

	// (b) Progress is monotone non-decreasing with a finite ETA mid-scan.
	long, err := env.cl.Submit(ctx, sqls[0])
	if err != nil {
		t.Fatal(err)
	}
	var lastProgress float64
	var sawMid, sawETA bool
	for {
		qs, err := long.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if qs.Progress < lastProgress {
			t.Fatalf("progress went backwards: %v -> %v", lastProgress, qs.Progress)
		}
		lastProgress = qs.Progress
		if qs.Progress > 0 && qs.Progress < 1 {
			sawMid = true
			if qs.ETAKnown {
				if qs.ETAMillis < 0 {
					t.Fatalf("negative ETA %d", qs.ETAMillis)
				}
				sawETA = true
			}
		}
		if qs.State == admission.StateDone.String() {
			if qs.Progress != 1 || !qs.ETAKnown || qs.ETAMillis != 0 {
				t.Fatalf("done status: %+v", qs)
			}
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !sawMid || !sawETA {
		t.Fatalf("never observed mid-flight progress with a finite ETA (sawMid=%v sawETA=%v)", sawMid, sawETA)
	}

	// (c) DELETE a queued and a running query; both slots come back.
	fill := make([]*client.Query, maxConc)
	for i := range fill {
		if fill[i], err = env.cl.Submit(ctx, sqls[i]); err != nil {
			t.Fatal(err)
		}
	}
	queued, err := env.cl.Submit(ctx, sqls[4])
	if err != nil {
		t.Fatal(err)
	}
	qs, err := queued.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if qs.State != admission.StateQueued.String() {
		t.Logf("note: expected queued, got %s (scan may have finished already)", qs.State)
	}
	if ok, err := queued.Cancel(ctx); err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	// Find a still-running query among the fillers and cancel it.
	var canceledRunning bool
	for _, q := range fill {
		s, err := q.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == admission.StateRunning.String() {
			ok, err := q.Cancel(ctx)
			if err != nil {
				t.Fatal(err)
			}
			canceledRunning = ok
			break
		}
	}
	if !canceledRunning {
		t.Log("note: no filler still running to cancel (fast scan); slot-reuse still checked below")
	}
	// A ticket the dispatcher is retrying against the full executor is
	// "admitting", and its cancel completes asynchronously: Result waits.
	if res, err := queued.Result(ctx); err != nil || res.Error == "" || res.State != admission.StateCanceled.String() {
		t.Fatalf("canceled result: err=%v res=%+v", err, res)
	}

	// Slots must be reusable: run a full batch of maxConc queries to
	// completion.
	for i := 0; i < maxConc; i++ {
		if _, err := env.cl.Exec(ctx, sqls[i]); err != nil {
			t.Fatalf("post-cancel exec %d: %v", i, err)
		}
	}
	for _, q := range fill {
		if res, err := q.Result(ctx); err != nil {
			t.Fatal(err)
		} else if res.Error != "" && res.State != admission.StateCanceled.String() {
			t.Fatalf("filler failed: %+v", res)
		}
	}
	st, err = env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Canceled == 0 {
		t.Fatalf("no cancellations recorded: %+v", st.Admission)
	}
}

func TestSubmitErrors(t *testing.T) {
	env := startServer(t, 300, 2, disk.Config{}, admission.Config{})
	ctx := context.Background()

	if _, err := env.cl.Submit(ctx, "SELEC nonsense"); err == nil {
		t.Fatal("bad SQL accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 {
		t.Fatalf("bad SQL error: %v", err)
	}
	if _, err := env.cl.Submit(ctx, "SELECT COUNT(*) FROM nosuch"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestUnknownQueryIs404(t *testing.T) {
	env := startServer(t, 300, 2, disk.Config{}, admission.Config{})
	ctx := context.Background()
	real, err := env.cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder")
	if err != nil {
		t.Fatal(err)
	}
	real.ID = "q-999999"
	if _, err := real.Status(ctx); err == nil {
		t.Fatal("unknown id accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 404 {
		t.Fatalf("unknown id error: %v", err)
	}
}

// TestLimitClause exercises the SQL LIMIT path over the wire.
func TestLimitClause(t *testing.T) {
	env := startServer(t, 500, 2, disk.Config{}, admission.Config{})
	ctx := context.Background()
	full, err := env.cl.Exec(ctx, `SELECT SUM(lo_revenue) AS rev, d_year
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year ORDER BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	if full.RowCount < 3 {
		t.Skipf("dataset produced only %d groups", full.RowCount)
	}
	limited, err := env.cl.Exec(ctx, `SELECT SUM(lo_revenue) AS rev, d_year
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year ORDER BY d_year LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if limited.RowCount != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", limited.RowCount)
	}
	if fmt.Sprint(limited.Rows[0]) != fmt.Sprint(full.Rows[0]) {
		t.Fatalf("limited prefix diverges: %v vs %v", limited.Rows[0], full.Rows[0])
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	env := startServer(t, 600, 2, disk.Config{}, admission.Config{})
	ctx := context.Background()

	q, err := env.cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder")
	if err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := env.srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// In-flight work completed.
	res, err := q.Result(ctx)
	if err != nil || res.Error != "" {
		t.Fatalf("drained query: err=%v res=%+v", err, res)
	}
	// New work refused.
	if _, err := env.cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder"); err == nil {
		t.Fatal("submit during drain accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 503 {
		t.Fatalf("drain error: %v", err)
	}
	if !env.cl.Healthy(ctx) {
		t.Fatal("healthz failed")
	}
	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats does not report draining")
	}
}

// TestEndToEndShardedOverload is the shard-enabled acceptance scenario:
// cjoind's -shards wiring (4 fact-partitioned pipelines behind one
// admission queue and HTTP API) under 3x-capacity offered load. Nothing
// may be rejected, every result must equal a direct in-process reference
// execution, /stats must expose per-shard pipeline counters without
// racing startup or drain, and the drain must complete cleanly.
func TestEndToEndShardedOverload(t *testing.T) {
	const maxConc, shards = 4, 4
	env := startServerSharded(t, 1600, maxConc, shards, 0, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Hammer /stats concurrently with submissions and the final drain —
	// the snapshot-discipline regression check.
	statsDone := make(chan struct{})
	statsStop := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			select {
			case <-statsStop:
				return
			default:
				if _, err := env.cl.Stats(ctx); err != nil {
					t.Errorf("stats during load: %v", err)
					return
				}
			}
		}
	}()

	sqls := workloadSQL(t, env.ds, 3*maxConc, 0.1)
	queries := make([]*client.Query, len(sqls))
	for i, sqlText := range sqls {
		q, err := env.cl.Submit(ctx, sqlText)
		if err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Result(ctx)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Error != "" {
			t.Fatalf("query %d failed: %s", i, res.Error)
		}
		b, err := query.ParseBind(sqls[i], env.ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := renderRows(server.DecodeResults(b, want))
		gotRows := renderRows(res.Rows)
		if len(gotRows) != len(wantRows) {
			t.Fatalf("query %d: %d rows, reference %d", i, len(gotRows), len(wantRows))
		}
		for r := range gotRows {
			if gotRows[r] != wantRows[r] {
				t.Fatalf("query %d row %d:\n got %s\nwant %s", i, r, gotRows[r], wantRows[r])
			}
		}
	}

	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Rejected != 0 || st.Admission.Completed < int64(len(sqls)) {
		t.Fatalf("admission stats: %+v", st.Admission)
	}
	if len(st.Shards) != shards {
		t.Fatalf("/stats reports %d shards, want %d", len(st.Shards), shards)
	}
	var shardPages, shardScanned int64
	for i, sh := range st.Shards {
		if sh.PagesRead == 0 {
			t.Fatalf("shard %d read no pages: %+v", i, sh)
		}
		shardPages += sh.PagesRead
		shardScanned += sh.TuplesScanned
	}
	if shardPages != st.Pipeline.PagesRead || shardScanned != st.Pipeline.TuplesScanned {
		t.Fatalf("per-shard sums (%d pages, %d tuples) disagree with merged pipeline stats (%d, %d)",
			shardPages, shardScanned, st.Pipeline.PagesRead, st.Pipeline.TuplesScanned)
	}

	dctx, dcancel := context.WithTimeout(ctx, 60*time.Second)
	defer dcancel()
	if err := env.srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(statsStop)
	<-statsDone
}
