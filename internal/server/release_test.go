package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/agg"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

// finishWith completes the gated query with res.
func (h *gateHandle) finishWith(res core.QueryResult) {
	h.res <- res
	close(h.done)
}

// countSQL is the gated tests' query: no group, one COUNT, so one row
// is estimated at 3*24 + 8*2 = 88 bytes.
const (
	countSQL = "SELECT COUNT(*) AS n FROM lineorder"
	countRow = 88
)

// countRows builds n result rows for countSQL.
func countRows(n int) []agg.Result {
	rows := make([]agg.Result, n)
	for i := range rows {
		rows[i] = agg.Result{Ints: []int64{int64(i)}, Counts: []int64{1}}
	}
	return rows
}

// gatedEnv is a server over gateExec: each query completes when the
// test hands its gate a result.
type gatedEnv struct {
	exec *gateExec
	ts   *httptest.Server
	cl   *client.Client
	reg  *obs.Registry
	bind *query.Bound
}

func startGated(t *testing.T, maxResultBytes int64) *gatedEnv {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := query.ParseBind(countSQL, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	exec := &gateExec{handles: make(chan *gateHandle, 16)}
	srv := server.New(ds.Star, ds.Txn, exec, server.Config{Metrics: reg, MaxResultBytes: maxResultBytes})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &gatedEnv{exec: exec, ts: ts, cl: client.New(ts.URL), reg: reg, bind: b}
}

func (e *gatedEnv) submit(t *testing.T) (*client.Query, *gateHandle) {
	t.Helper()
	q, err := e.cl.Submit(context.Background(), countSQL)
	if err != nil {
		t.Fatal(err)
	}
	return q, <-e.exec.handles
}

// awaitMetric waits until the registry's series reads want: retention
// is accounted on the completing goroutine, after the ticket is done.
func awaitMetric(t *testing.T, reg *obs.Registry, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var text strings.Builder
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		got := parseMetrics(t, text.String())[series]
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

const (
	retainedBytes    = "cjoin_results_retained_bytes"
	releasedDeliver  = `cjoin_results_released_total{cause="delivered"}`
	releasedByBudget = `cjoin_results_released_total{cause="budget"}`
)

// expectGone fails unless fetching q's result answers 410 Gone, not
// retryable, naming cause.
func expectGone(t *testing.T, q *client.Query, cause string) {
	t.Helper()
	_, err := q.Result(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGone {
		t.Fatalf("%s: re-fetch err = %v, want HTTP 410", q.ID, err)
	}
	if apiErr.IsRetryable() {
		t.Fatalf("%s: 410 reported retryable: %+v", q.ID, apiErr)
	}
	if !strings.Contains(apiErr.Message, cause) {
		t.Fatalf("%s: 410 message %q does not name %q", q.ID, apiErr.Message, cause)
	}
}

// TestResultServedOnce pins release on delivery over a real pipeline: the
// first fetch gets the rows, the second a typed, non-retryable 410, while
// status and the complete trace stay served.
func TestResultServedOnce(t *testing.T) {
	env := startServer(t, 600, 2, disk.Config{}, admission.Config{})
	ctx := context.Background()
	q, err := env.cl.Submit(ctx, `SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Result(ctx)
	if err != nil || res.Error != "" || res.RowCount == 0 || len(res.Rows) != res.RowCount {
		t.Fatalf("first fetch: err=%v res=%+v", err, res)
	}
	expectGone(t, q, "already delivered")
	st, err := q.Status(ctx)
	if err != nil || st.State != "done" || st.Progress != 1 {
		t.Fatalf("status after delivery: err=%v %+v", err, st)
	}
	tr, err := q.Trace(ctx)
	if err != nil || !tr.Complete {
		t.Fatalf("trace after delivery: err=%v %+v", err, tr)
	}
	awaitMetric(t, env.reg, releasedDeliver, 1)
	awaitMetric(t, env.reg, retainedBytes, 0)
}

// brokenWriter is a ResponseWriter whose connection fails after limit
// body bytes, as when a client disconnects mid-body.
type brokenWriter struct {
	h     http.Header
	limit int
	n     int
}

func (w *brokenWriter) Header() http.Header { return w.h }
func (w *brokenWriter) WriteHeader(int)     {}
func (w *brokenWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errors.New("connection reset by peer")
	}
	w.n += len(p)
	return len(p), nil
}

// TestResultKeptOnBrokenDelivery: a fetch whose body write fails is no
// delivery, so the next fetch still gets the rows.
func TestResultKeptOnBrokenDelivery(t *testing.T) {
	env := startGated(t, 0)
	q, h := env.submit(t)
	h.finishWith(core.QueryResult{Rows: countRows(20000)}) // ~150 KB of JSON
	awaitMetric(t, env.reg, retainedBytes, 20000*countRow)

	for _, limit := range []int{0, 40 << 10} {
		req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/query/"+q.ID+"/result", nil)
		if err != nil {
			t.Fatal(err)
		}
		bw := &brokenWriter{h: http.Header{}, limit: limit}
		env.ts.Config.Handler.ServeHTTP(bw, req)
		if limit > 0 && bw.n == 0 {
			t.Fatal("the broken fetch wrote nothing before failing")
		}
	}
	res, err := q.Result(context.Background())
	if err != nil || res.RowCount != 20000 || len(res.Rows) != 20000 {
		t.Fatalf("fetch after broken deliveries: err=%v rows=%d", err, res.RowCount)
	}
	expectGone(t, q, "already delivered")
	awaitMetric(t, env.reg, retainedBytes, 0)
}

// TestResultBudgetReleasesOldestUndelivered: past MaxResultBytes the
// oldest result nobody fetched goes first — a delivered one no longer
// counts — and retained bytes fall back to 0 once every result is
// fetched or released.
func TestResultBudgetReleasesOldestUndelivered(t *testing.T) {
	const rows = 10
	env := startGated(t, 2*rows*countRow+countRow) // room for two results
	ctx := context.Background()
	q1, h1 := env.submit(t)
	q2, h2 := env.submit(t)
	q3, h3 := env.submit(t)
	q4, h4 := env.submit(t)

	h1.finishWith(core.QueryResult{Rows: countRows(rows)})
	h2.finishWith(core.QueryResult{Rows: countRows(rows)})
	awaitMetric(t, env.reg, retainedBytes, 2*rows*countRow)
	if res, err := q2.Result(ctx); err != nil || res.RowCount != rows {
		t.Fatalf("q2: err=%v %+v", err, res)
	}
	awaitMetric(t, env.reg, retainedBytes, rows*countRow)

	// q3 fits beside q1; q4 does not, and q1 is the oldest undelivered
	// (q2, older than q3, is already gone).
	h3.finishWith(core.QueryResult{Rows: countRows(rows)})
	awaitMetric(t, env.reg, retainedBytes, 2*rows*countRow)
	h4.finishWith(core.QueryResult{Rows: countRows(rows)})
	awaitMetric(t, env.reg, releasedByBudget, 1)
	awaitMetric(t, env.reg, retainedBytes, 2*rows*countRow)

	expectGone(t, q1, "memory budget")
	expectGone(t, q2, "already delivered")
	for _, q := range []*client.Query{q3, q4} {
		if res, err := q.Result(ctx); err != nil || res.RowCount != rows {
			t.Fatalf("%s: err=%v %+v", q.ID, err, res)
		}
	}
	awaitMetric(t, env.reg, retainedBytes, 0)
	awaitMetric(t, env.reg, releasedDeliver, 3)
	if st, err := q1.Status(ctx); err != nil || st.State != "done" {
		t.Fatalf("q1 status after budget release: err=%v %+v", err, st)
	}
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":\d+`)

// TestConcurrentFetchesRaceBudgetRelease: N fetches of one result race
// its budget release (another query's completion pushes it out). Each
// gets the full body, byte-identical to encoding/json of DecodeResults
// but for elapsed_ms, or a 410 — never a truncated 200.
func TestConcurrentFetchesRaceBudgetRelease(t *testing.T) {
	const rows, fetchers, rounds = 2000, 8, 10
	env := startGated(t, rows*countRow) // room for exactly one result
	raw := countRows(rows)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)

	for round := 0; round < rounds; round++ {
		q, h := env.submit(t)
		h.finishWith(core.QueryResult{Rows: raw})
		want.Reset()
		if err := enc.Encode(server.ResultResponse{
			ID: q.ID, State: "done", Columns: []string{"n"},
			Rows: server.DecodeResults(env.bind, raw), RowCount: rows,
		}); err != nil {
			t.Fatal(err)
		}
		_, next := env.submit(t)

		var wg sync.WaitGroup
		start := make(chan struct{})
		codes := make([]int, fetchers)
		for i := 0; i < fetchers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := http.Get(env.ts.URL + "/query/" + q.ID + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
					return
				}
				codes[i] = resp.StatusCode
				switch resp.StatusCode {
				case http.StatusOK:
					if got := elapsedField.ReplaceAll(body, []byte(`"elapsed_ms":0`)); !bytes.Equal(got, want.Bytes()) {
						t.Errorf("fetch %d: 200 body of %d bytes differs from the %d-byte reference", i, len(body), want.Len())
					}
				case http.StatusGone:
				default:
					t.Errorf("fetch %d: HTTP %d: %s", i, resp.StatusCode, body)
				}
			}(i)
		}
		close(start)
		// next's completion pushes q out unless a fetch delivered it
		// first; each round lands it a little later in the fetches.
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		next.finishWith(core.QueryResult{Rows: raw})
		wg.Wait()
		t.Logf("round %d: codes %v", round, codes)
		// Whatever won, q's rows are gone and only next's remain.
		awaitMetric(t, env.reg, retainedBytes, rows*countRow)
	}
}

// TestRequestBodyCaps pins the POST body caps at limit−1 (accepted) and
// limit+1 (a typed 413).
func TestRequestBodyCaps(t *testing.T) {
	env := startServer(t, 300, 2, disk.Config{}, admission.Config{})
	// padded is a JSON object of exactly n bytes: the padding sits before
	// the closing brace, so the decoder must read all of it.
	padded := func(prefix string, n int) string {
		return prefix + strings.Repeat(" ", n-len(prefix)-1) + "}"
	}
	for _, tc := range []struct {
		path, prefix string
		limit        int
		ok           int
	}{
		{"/query", `{"sql":"` + countSQL + `"`, server.MaxQueryBodyBytes, http.StatusAccepted},
		{"/update", `{"op":"delete","row":0`, server.MaxUpdateBodyBytes, http.StatusOK},
	} {
		for _, n := range []int{tc.limit - 1, tc.limit + 1} {
			resp, err := http.Post(env.ts.URL+tc.path, "application/json", strings.NewReader(padded(tc.prefix, n)))
			if err != nil {
				t.Fatal(err)
			}
			var er server.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			want := tc.ok
			if n > tc.limit {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Fatalf("POST %s with a %d-byte body: HTTP %d (%s), want %d", tc.path, n, resp.StatusCode, er.Error, want)
			}
			if want == http.StatusRequestEntityTooLarge && !strings.Contains(er.Error, "exceeds") {
				t.Fatalf("POST %s 413 body %+v", tc.path, er)
			}
		}
	}
}
