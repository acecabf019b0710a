package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

func smallDataset(t *testing.T) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 2000, Seed: datasetSeed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// wire is the request as it goes on the wire.
func (r request) wire() []byte {
	var v any = server.SubmitRequest{SQL: r.SQL}
	if r.Update != nil {
		v = r.Update
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only generated values of marshalable types
	}
	return b
}

// stream is the first n requests of every lane, as sent on the wire.
func stream(ds *ssb.Dataset, w workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	for _, l := range w.lanes(ds, seed) {
		for i := 0; i < n; i++ {
			buf.Write(l.next().wire())
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	ds := smallDataset(t)
	for _, w := range workloads {
		a, b, c := stream(ds, w, 7, 200), stream(ds, w, 7, 200), stream(ds, w, 8, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
		if n := len(w.lanes(ds, 7)); n > 2 {
			t.Errorf("%s: %d generator lanes; the load is sized to two processors", w.name, n)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPromSumsAddsSeriesAndSkipsBuckets(t *testing.T) {
	got := promSums("# HELP x y\n" +
		"cjoin_scan_pages_total{shard=\"0\"} 3\n" +
		"cjoin_scan_pages_total{shard=\"1\"} 4\n" +
		"cjoin_commit_seconds_bucket{le=\"0.1\"} 9\n" +
		"cjoin_commit_seconds_sum 0.25\n")
	if got["cjoin_scan_pages_total"] != 7 || got["cjoin_commit_seconds_sum"] != 0.25 || len(got) != 2 {
		t.Errorf("promSums = %v", got)
	}
}

// stallingServer speaks enough of cjoind's API for the generator, and
// holds one POST /query for stall.
func stallingServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		if i == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.QueryStatus{ID: fmt.Sprintf("q-%06d", i), State: "queued"})
	})
	mux.HandleFunc("GET /query/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.ResultResponse{ID: r.PathValue("id"), State: "done"})
	})
	return httptest.NewServer(mux)
}

// A 300 ms stall at 100 requests/s delays the thirty requests scheduled
// behind it. Timed from their due times, about twenty of them took over
// 100 ms; timed from when they were finally sent, only the stalled one
// did — the coordinated omission the open loop must not commit.
func TestOpenLoopTimesFromDueTimeAndDropsNothing(t *testing.T) {
	srv := stallingServer(10, 300*time.Millisecond)
	defer srv.Close()

	ld := startLoad(context.Background(), srv.URL, []lane{{rate: 100, next: func() request { return request{SQL: "SELECT 1"} }}}, 1)
	time.Sleep(time.Second)
	samples := ld.stop()

	if len(samples) < 90 {
		t.Fatalf("%d requests in 1 s at 100/s: requests were dropped", len(samples))
	}
	slowFromDue, slowFromSent := 0, 0
	for i, s := range samples {
		if s.failure != "" {
			t.Fatalf("request %d failed: %s", i, s.failure)
		}
		if s.seq != i {
			t.Fatalf("sample %d has sequence number %d: a request was dropped or reordered", i, s.seq)
		}
		if want := samples[0].due.Add(time.Duration(i) * 10 * time.Millisecond); !s.due.Equal(want) {
			t.Fatalf("request %d due %v after the first, want %v", i, s.due.Sub(samples[0].due), want.Sub(samples[0].due))
		}
		if s.latency() > 100*time.Millisecond {
			slowFromDue++
		}
		if s.done.Sub(s.sent) > 100*time.Millisecond {
			slowFromSent++
		}
	}
	if slowFromDue < 15 || slowFromSent != 1 {
		t.Errorf("%d requests over 100 ms from due time (want about 20), %d from send time (want 1)", slowFromDue, slowFromSent)
	}
}

func TestClosedLoopKeepsTheWindowFull(t *testing.T) {
	srv := stallingServer(0, 0)
	defer srv.Close()
	ld := startLoad(context.Background(), srv.URL, []lane{{window: 4, next: func() request { return request{SQL: "SELECT 1"} }}}, 1)
	time.Sleep(200 * time.Millisecond)
	samples := ld.stop()
	if len(samples) < 8 {
		t.Fatalf("only %d requests through a window of 4", len(samples))
	}
	for _, s := range samples {
		if s.lag() < 0 || s.latency() <= 0 || s.resp == nil {
			t.Fatalf("sample %d: lag %v latency %v resp %v", s.seq, s.lag(), s.latency(), s.resp)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Name: "p", Start: 0, End: 100}
	children := []span{
		{Name: "a", Start: 10, End: 30},
		{Name: "b", Start: 20, End: 50},  // overlaps a
		{Name: "c", Start: 90, End: 120}, // runs past the parent
		{Name: "d", Start: 25, End: 28},  // inside a and b
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time = %v, want 50 (100 less 10..50 and 90..100)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	lower, higher := specMetric{Better: "lower"}, specMetric{Better: "higher"}
	if got := worseBy(lower, 100, 112); got != 0.12 {
		t.Errorf("lower-is-better 100 → 112: worse by %v, want 0.12", got)
	}
	if got := worseBy(higher, 100, 88); got != 0.12 {
		t.Errorf("higher-is-better 100 → 88: worse by %v, want 0.12", got)
	}
	if got := worseBy(higher, 100, 110); got >= 0 {
		t.Errorf("higher-is-better 100 → 110: worse by %v, want negative", got)
	}
}

// The traced run's numbers stand for cjoind's only if the in-process
// stack is the same program: with the decorators off (and on) it must
// return the rows a live cjoind returns.
func TestInProcessStackReturnsWhatCjoindReturns(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildCjoind(root)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20000
	d, err := startDaemon(bin, daemonFlags(rows, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()

	ds := smallDataset(t)
	queries := append(sharedPool(ds, 3)[:4],
		wideReader(ds, 1, 3, 0).next().SQL,
		adhocReader(ds, 1, 3, 0).next().SQL,
	)
	ctx := context.Background()
	for _, decorate := range []bool{false, true} {
		st, err := startStack(rows, 2, decorate)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want, err := client.New(d.base).Exec(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.New(st.base).Exec(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(want.Rows)
			b, _ := json.Marshal(got.Rows)
			if !bytes.Equal(a, b) || want.RowCount != got.RowCount {
				t.Errorf("decorators %v: in-process stack returned %d rows, cjoind %d, for %s", decorate, got.RowCount, want.RowCount, q)
			}
		}
		st.stop()
	}
}

// The smoke pass runs the whole suite — four workloads, live and traced,
// answer checks, budget — on a tenth of the data with short windows.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cjoind eight times")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := runSuite(ctx, 5, 200000, 2, true); err != nil {
		t.Fatal(err)
	}
}
