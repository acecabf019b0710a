package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

// gateExec is a core.Executor stub whose queries finish only when the
// test releases them, so a test decides which tracked queries are
// terminal at each eviction sweep.
type gateExec struct {
	rejectingExec
	handles chan *gateHandle
}

type gateHandle struct {
	res  chan core.QueryResult
	done chan struct{}
}

func (h *gateHandle) release() {
	h.res <- core.QueryResult{}
	close(h.done)
}

func (h *gateHandle) Slot() int                  { return 0 }
func (h *gateHandle) Wait() core.QueryResult     { return <-h.res }
func (h *gateHandle) Done() <-chan struct{}      { return h.done }
func (h *gateHandle) Cancel() bool               { return false }
func (h *gateHandle) PagesScanned() int64        { return 0 }
func (h *gateHandle) ETA() (time.Duration, bool) { return 0, false }
func (h *gateHandle) Progress() float64          { return 0 }
func (h *gateHandle) Submission() time.Duration  { return 0 }

func (e *gateExec) SubmitBatch(_ context.Context, qs []*query.Bound) ([]core.Handle, []error, error) {
	hs := make([]core.Handle, len(qs))
	for i := range qs {
		h := &gateHandle{res: make(chan core.QueryResult, 1), done: make(chan struct{})}
		e.handles <- h
		hs[i] = h
	}
	return hs, make([]error, len(qs)), nil
}
func (e *gateExec) MaxConcurrent() int { return 8 }

// TestEvictionOrder pins the bounded-history contract: once more than
// MaxTracked queries are held, each submission evicts the oldest
// FINISHED ones in registration order (with their traces), and a query
// that is still running is stepped over — never evicted — until it
// finishes, when it is again the oldest.
func TestEvictionOrder(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exec := &gateExec{handles: make(chan *gateHandle, 16)}
	srv := server.New(ds.Star, ds.Txn, exec, server.Config{MaxTracked: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	ctx := context.Background()
	const sql = "SELECT COUNT(*) FROM lineorder"

	// submit registers one query and returns it with its gate; finish
	// releases the gate and waits for the terminal state to be visible.
	submit := func() (*client.Query, *gateHandle) {
		t.Helper()
		q, err := cl.Submit(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		return q, <-exec.handles
	}
	finish := func(q *client.Query, h *gateHandle) {
		t.Helper()
		h.release()
		if _, err := q.Result(ctx); err != nil {
			t.Fatal(err)
		}
	}
	tracked := func(q *client.Query) bool {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query/" + q.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		tr, err := http.Get(ts.URL + "/query/" + q.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		tr.Body.Close()
		if (resp.StatusCode == http.StatusOK) != (tr.StatusCode == http.StatusOK) {
			t.Fatalf("%s: status %d but trace %d — eviction must drop both", q.ID, resp.StatusCode, tr.StatusCode)
		}
		return resp.StatusCode == http.StatusOK
	}
	expect := func(when string, qs []*client.Query, want ...bool) {
		t.Helper()
		for i, q := range qs {
			if got := tracked(q); got != want[i] {
				t.Fatalf("%s: %s tracked=%v, want %v", when, q.ID, got, want[i])
			}
		}
	}

	q1, h1 := submit() // stays running at the head of the order
	q2, h2 := submit()
	finish(q2, h2)
	q3, h3 := submit()
	finish(q3, h3)
	qs := []*client.Query{q1, q2, q3}
	expect("at the cap", qs, true, true, true)

	// Over the cap by one: q1 is older but still running, so the oldest
	// finished query goes.
	q4, h4 := submit()
	qs = append(qs, q4)
	expect("after q4", qs, true, false, true, true)

	// q4 is the only finished candidate besides q3; registration order
	// decides.
	finish(q4, h4)
	q5, h5 := submit()
	qs = append(qs, q5)
	expect("after q5", qs, true, false, false, true, true)

	// Once q1 finishes it is the oldest finished query again.
	finish(q1, h1)
	q6, h6 := submit()
	qs = append(qs, q6)
	expect("after q6", qs, false, false, false, true, true, true)

	// Nothing finished is left to evict but q4: q5 and q6 are running.
	q7, h7 := submit()
	qs = append(qs, q7)
	expect("after q7", qs, false, false, false, false, true, true, true)

	// Every tracked query is live: the table exceeds the cap rather than
	// evict one of them.
	q8, h8 := submit()
	qs = append(qs, q8)
	expect("all live", qs, false, false, false, false, true, true, true, true)

	for _, g := range []struct {
		q *client.Query
		h *gateHandle
	}{{q5, h5}, {q6, h6}, {q7, h7}, {q8, h8}} {
		finish(g.q, g.h)
	}
}
