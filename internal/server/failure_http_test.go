package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// healthExec is a core.Executor stub with a fixed health report — the
// smallest harness for the /healthz state mapping.
type healthExec struct {
	rejectingExec
	h core.Health
}

func (e *healthExec) Health() core.Health { return e.h }

func getHealth(t *testing.T, h http.Handler) (int, server.HealthResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr server.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body, err)
	}
	return rec.Code, hr
}

// TestHealthzStateMapping pins the probe contract: ok and degraded stay
// 200 (the tier still serves; load balancers keep routing), total
// capacity loss flips to 503, and the body carries the per-shard
// breakdown with the failure cause.
func TestHealthzStateMapping(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		health   core.Health
		wantCode int
	}{
		{"ok", core.Health{State: "ok", Shards: []core.ShardHealth{
			{Shard: 0, State: core.ShardHealthy}}}, 200},
		{"degraded", core.Health{State: "degraded", Shards: []core.ShardHealth{
			{Shard: 0, State: core.ShardHealthy},
			{Shard: 1, State: core.ShardFailed, Cause: "injected panic"}}}, 200},
		{"failed", core.Health{State: "failed", Shards: []core.ShardHealth{
			{Shard: 0, State: core.ShardFailed, Cause: "injected panic"}}}, 503},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := &healthExec{h: tc.health}
			srv := server.New(ds.Star, ds.Txn, exec, server.Config{})
			code, hr := getHealth(t, srv.Handler())
			if code != tc.wantCode || hr.State != tc.health.State {
				t.Fatalf("healthz = %d %q, want %d %q", code, hr.State, tc.wantCode, tc.health.State)
			}
			if len(hr.Shards) != len(tc.health.Shards) {
				t.Fatalf("%d shard entries, want %d", len(hr.Shards), len(tc.health.Shards))
			}
			for i, sh := range tc.health.Shards {
				if hr.Shards[i].State != string(sh.State) || hr.Shards[i].Cause != sh.Cause {
					t.Fatalf("shard %d health %+v, want %+v", i, hr.Shards[i], sh)
				}
			}
			// /stats carries the same signal for scrapers.
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
			var st server.StatsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Degraded != (tc.health.State == "degraded") {
				t.Fatalf("stats degraded = %v under health %q", st.Degraded, tc.health.State)
			}
		})
	}
}

// shardStatsExec is a core.Executor stub with fixed per-shard stats.
type shardStatsExec struct {
	rejectingExec
	shards []core.Stats
}

func (e *shardStatsExec) StatsWithShards() (core.Stats, []core.Stats) {
	return core.Stats{}, e.shards
}

// TestStatsPlanePipelinesCountsServingShards pins the source of /stats
// plane_pipelines: the shards of the per-shard snapshot still serving,
// which are the pipelines probing the shared plane. A quarantined shard
// drops out, and a group with every shard down reads 0.
func TestStatsPlanePipelinesCountsServingShards(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h, f := core.ShardHealthy, core.ShardFailed
	cases := []struct {
		name   string
		states []core.ShardState
		want   int
	}{
		{"all-serving", []core.ShardState{h, h, h}, 3},
		{"one-quarantined", []core.ShardState{h, f, h}, 2},
		{"all-down", []core.ShardState{f, f}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := &shardStatsExec{}
			for _, st := range tc.states {
				exec.shards = append(exec.shards, core.Stats{State: st})
			}
			srv := server.New(ds.Star, ds.Txn, exec, server.Config{})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
			var st server.StatsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Pipeline.PlanePipelines != tc.want {
				t.Fatalf("plane_pipelines = %d, want %d", st.Pipeline.PlanePipelines, tc.want)
			}
			if len(st.Shards) != len(tc.states) {
				t.Fatalf("%d shard entries, want %d", len(st.Shards), len(tc.states))
			}
		})
	}
}

// TestShardFailureIs503WithRetryAfter drives the serving tier's typed
// shard failure to the HTTP surface: the result endpoint answers 503
// with a Retry-After hint, and the typed client reports it retryable.
func TestShardFailureIs503WithRetryAfter(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	typed := &shard.ShardFailedError{Shard: 1, Cause: errors.New("injected shard loss")}
	srv := server.New(ds.Star, ds.Txn, &rejectingExec{err: typed}, server.Config{
		Admission: admission.Config{MaxQueue: 8},
	})
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL)
	ctx := context.Background()
	q, err := cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder")
	if err != nil {
		t.Fatalf("submit (async dispatch) rejected: %v", err)
	}
	_, err = q.Result(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("result error %v, want *client.APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", apiErr.StatusCode)
	}
	if !apiErr.IsRetryable() || apiErr.RetryAfter <= 0 {
		t.Fatalf("shard failure not marked retryable: %+v", apiErr)
	}
	if !strings.Contains(apiErr.Message, "shard 1") {
		t.Fatalf("message %q does not name the failed shard", apiErr.Message)
	}
}

// TestQueueDeadlineExpiryIs429 pins the backpressure half of the typed
// error matrix: a query whose queue wait expires gets 429 + Retry-After
// — retryable, and deliberately distinct from the 503 a degraded or
// draining tier returns.
func TestQueueDeadlineExpiryIs429(t *testing.T) {
	// ~25 MB/s over ~600 KB of fact pages with one slot: the blocker
	// holds the pipeline far beyond the impatient query's deadline.
	env := startServer(t, 4000, 1, disk.Config{SeqBytesPerSec: 25 << 20},
		admission.Config{MaxQueue: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	blocker, err := env.cl.Submit(ctx, "SELECT COUNT(*) AS n FROM lineorder")
	if err != nil {
		t.Fatal(err)
	}
	impatient, err := env.cl.SubmitOpts(ctx, "SELECT COUNT(*) AS n FROM lineorder",
		client.SubmitOptions{MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = impatient.Result(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("expired result error %v, want *client.APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", apiErr.StatusCode)
	}
	if !apiErr.IsRetryable() || apiErr.RetryAfter <= 0 {
		t.Fatalf("expiry not marked retryable: %+v", apiErr)
	}
	if res, err := blocker.Result(ctx); err != nil || res.Error != "" {
		t.Fatalf("blocker: err=%v res=%+v", err, res)
	}
}

// TestSubmitRetryBacksOff exercises the client's jittered-backoff loop:
// two 429 rejections, then acceptance — the caller sees one successful
// handle; a non-retryable 400 short-circuits immediately.
func TestSubmitRetryBacksOff(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			// No Retry-After: a 429 alone is retryable, and the policy's
			// own backoff (not the server floor) governs — keeps the test
			// at milliseconds.
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "admission queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.QueryStatus{ID: "q-000001", State: "queued"})
	}))
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL)
	q, err := cl.SubmitRetry(context.Background(), "SELECT COUNT(*) AS n FROM lineorder",
		client.SubmitOptions{}, client.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	if q.ID != "q-000001" || attempts != 3 {
		t.Fatalf("id=%s attempts=%d", q.ID, attempts)
	}

	attempts = 0
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "parse error"})
	}))
	t.Cleanup(bad.Close)
	if _, err := client.New(bad.URL).SubmitRetry(context.Background(), "nonsense",
		client.SubmitOptions{}, client.RetryPolicy{BaseBackoff: time.Millisecond}); err == nil || attempts != 1 {
		t.Fatalf("non-retryable 400: err=%v attempts=%d (want 1 attempt)", err, attempts)
	}
}
