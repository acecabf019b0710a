package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/server"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// rejectingExec is a core.Executor stub whose every submission fails
// with a fixed error — the smallest harness that drives an executor
// error through the admission queue to the HTTP surface.
type rejectingExec struct{ err error }

func (e *rejectingExec) SubmitBatch(context.Context, []*query.Bound) ([]core.Handle, []error, error) {
	return nil, nil, e.err
}
func (e *rejectingExec) MaxConcurrent() int                          { return 4 }
func (e *rejectingExec) ActiveQueries() int                          { return 0 }
func (e *rejectingExec) Quiesce()                                    {}
func (e *rejectingExec) Health() core.Health                         { return core.Health{State: "ok"} }
func (e *rejectingExec) StatsWithShards() (core.Stats, []core.Stats) { return core.Stats{}, nil }
func (e *rejectingExec) PlaneStats() dimplane.Stats                  { return dimplane.Stats{} }
func (e *rejectingExec) ShardPartitions() [][]int                    { return nil }

// TestUnprocessableQueryIs422 verifies the typed-error contract: an
// executor error that knows its HTTP status (shard.RangePartitionedError
// → 422 Unprocessable Entity) reaches the client with that status and a
// clear message, instead of a generic 200-with-error or 500. Admission
// dispatch is asynchronous, so the mapping happens at the result
// endpoint. Since partition dealing landed, the error itself only arises
// for the degenerate shards > partitions topology (normally caught at
// group construction); the stub keeps the HTTP mapping pinned
// independent of which layer raises it.
func TestUnprocessableQueryIs422(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	typed := &shard.RangePartitionedError{Shards: 8, Partitions: 4}
	srv := server.New(ds.Star, ds.Txn, &rejectingExec{err: typed}, server.Config{
		Admission: admission.Config{MaxQueue: 8},
	})
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	h := srv.Handler()

	body := strings.NewReader(`{"sql":"SELECT COUNT(*) AS n FROM lineorder"}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var st server.QueryStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query/"+st.ID+"/result?timeout=5s", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("result status %d, want 422: %s", rec.Code, rec.Body)
	}
	var res server.ResultResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Error, "range-partitioned") {
		t.Fatalf("error message not surfaced: %q", res.Error)
	}
}

// TestPartitionedShardedEndToEnd verifies the topology the 422 used to
// forbid now works over the full HTTP stack: a range-partitioned star
// under -shards 2 accepts submits, prunes (a narrow date window charges
// fewer pages than the full table, observable through /query/{id}),
// returns reference-exact rows, and /stats reports the partition deal —
// the star's partition count on the merged entry, each shard's dealt
// share on the per-shard entries.
func TestPartitionedShardedEndToEnd(t *testing.T) {
	const parts, shards = 4, 2
	env := startServerSharded(t, 2400, 8, shards, parts, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := env.ds.DateKeys
	sqls := []string{
		fmt.Sprintf("SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year ORDER BY d_year",
			keys[0], keys[len(keys)/8]),
		"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
	}
	pages := make([]int64, len(sqls))
	for i, sqlText := range sqls {
		q, err := env.cl.Submit(ctx, sqlText)
		if err != nil {
			t.Fatalf("partitioned submit %d rejected: %v", i, err)
		}
		res, err := q.Result(ctx)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Error != "" || res.State != "done" {
			t.Fatalf("query %d failed: state=%s err=%s", i, res.State, res.Error)
		}
		b, err := query.ParseBind(sqlText, env.ds.Star)
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
		st, err := q.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = st.PagesScanned
	}
	if pages[0] <= 0 || pages[0]*2 >= pages[1] {
		t.Fatalf("pruning not visible through the API: narrow=%d pages, wide=%d", pages[0], pages[1])
	}

	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipeline.Partitions != parts {
		t.Fatalf("merged partitions = %d, want %d", st.Pipeline.Partitions, parts)
	}
	if len(st.Shards) != shards {
		t.Fatalf("%d shard entries", len(st.Shards))
	}
	dealt := 0
	for i, sh := range st.Shards {
		if sh.Partitions < 1 {
			t.Fatalf("shard %d reports %d partitions", i, sh.Partitions)
		}
		dealt += sh.Partitions
	}
	if dealt != parts {
		t.Fatalf("per-shard partitions sum to %d, want %d", dealt, parts)
	}
}

// TestStatsExposePlaneFigures verifies /stats reports the shared
// dimension plane once: admission count and wall time plus resident
// bytes on the merged pipeline entry, with per-shard entries zero (the
// stores are shared, not replicated ×N).
func TestStatsExposePlaneFigures(t *testing.T) {
	env := startServerSharded(t, 600, 4, 4, 0, disk.Config{}, admission.Config{})
	ctx := context.Background()
	q, err := env.cl.Submit(ctx, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year")
	if err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := q.Result(rctx); err != nil {
		t.Fatal(err)
	}
	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Pipeline
	if p.DimAdmits < 1 || p.DimAdmitMicros <= 0 {
		t.Fatalf("plane admission not reported: admits=%d us=%d", p.DimAdmits, p.DimAdmitMicros)
	}
	if p.PlanePipelines != 4 {
		t.Fatalf("plane_pipelines = %d, want 4", p.PlanePipelines)
	}
	if p.PlanePeakBytes <= 0 {
		t.Fatalf("plane_peak_bytes = %d, want > 0", p.PlanePeakBytes)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("%d shard entries", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.DimAdmits != 0 || sh.PlaneBytes != 0 || sh.PlanePipelines != 0 {
			t.Fatalf("shard %d duplicates plane figures: %+v", i, sh)
		}
	}
}
