package admission

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/query"
	"cjoin/internal/ssb"
)

// fakeHandle is a Handle whose query completes when the test says so.
type fakeHandle struct {
	res  core.QueryResult
	done chan struct{}
}

func newFakeHandle() *fakeHandle { return &fakeHandle{done: make(chan struct{})} }

func (h *fakeHandle) finish() { close(h.done) }

func (h *fakeHandle) Slot() int                  { return 0 }
func (h *fakeHandle) Wait() core.QueryResult     { <-h.done; return h.res }
func (h *fakeHandle) Done() <-chan struct{}      { return h.done }
func (h *fakeHandle) Cancel() bool               { return false }
func (h *fakeHandle) PagesScanned() int64        { return 0 }
func (h *fakeHandle) ETA() (time.Duration, bool) { return 0, false }
func (h *fakeHandle) Progress() float64          { return 0 }
func (h *fakeHandle) Submission() time.Duration  { return 0 }

// fakeExec is a choreographed Executor: every SubmitBatch blocks until
// the test feeds the gate, so the dispatcher can be held mid-admission
// while the waiting line is staged — batch formation becomes
// deterministic instead of a scheduling race. Outcomes are scripted by
// call number (0-based), and every call's queries are recorded.
type fakeExec struct {
	maxConc int
	gate    chan struct{}
	entered chan struct{} // one signal per SubmitBatch entry

	batchErr  map[int]error   // call n fails whole-batch with this
	queryErrs map[int][]error // per-query errs for call n

	mu      sync.Mutex
	calls   [][]*query.Bound
	handles []*fakeHandle
}

func newFakeExec(maxConc int) *fakeExec {
	return &fakeExec{
		maxConc: maxConc,
		gate:    make(chan struct{}, 64),
		entered: make(chan struct{}, 64),
	}
}

func (f *fakeExec) finishAll() {
	f.mu.Lock()
	hs := f.handles
	f.handles = nil
	f.mu.Unlock()
	for _, h := range hs {
		h.finish()
	}
}

func (f *fakeExec) SubmitBatch(ctx context.Context, qs []*query.Bound) ([]core.Handle, []error, error) {
	f.entered <- struct{}{}
	<-f.gate
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.calls)
	f.calls = append(f.calls, slices.Clone(qs))
	if err := f.batchErr[n]; err != nil {
		return nil, nil, err
	}
	handles := make([]core.Handle, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		if qe := f.queryErrs[n]; qe != nil && qe[i] != nil {
			errs[i] = qe[i]
			continue
		}
		h := newFakeHandle()
		f.handles = append(f.handles, h)
		handles[i] = h
	}
	return handles, errs, nil
}

func (f *fakeExec) MaxConcurrent() int                          { return f.maxConc }
func (f *fakeExec) ActiveQueries() int                          { return 0 }
func (f *fakeExec) Quiesce()                                    {}
func (f *fakeExec) Health() core.Health                         { return core.Health{State: "ok"} }
func (f *fakeExec) StatsWithShards() (core.Stats, []core.Stats) { return core.Stats{}, nil }
func (f *fakeExec) PlaneStats() dimplane.Stats                  { return dimplane.Stats{} }
func (f *fakeExec) ShardPartitions() [][]int                    { return nil }

var _ core.Executor = (*fakeExec)(nil)

// sizes returns the size of every SubmitBatch call so far.
func (f *fakeExec) sizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.calls))
	for i, c := range f.calls {
		out[i] = len(c)
	}
	return out
}

// call returns the queries of SubmitBatch call n.
func (f *fakeExec) call(n int) []*query.Bound {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[n]
}

func testBounds(t *testing.T, n int) []*query.Bound {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := ssb.NewWorkload(ds, 0.1, 3)
	out := make([]*query.Bound, n)
	for i := range out {
		_, text := w.Next()
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// awaitEntry fails the test unless the executor reports a SubmitBatch
// entry soon.
func awaitEntry(t *testing.T, f *fakeExec) {
	t.Helper()
	select {
	case <-f.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("executor was not reached")
	}
}

// step lets the executor call the dispatcher is about to make, or is
// already held in, return.
func step(t *testing.T, f *fakeExec) {
	t.Helper()
	awaitEntry(t, f)
	f.gate <- struct{}{}
}

func submitAll(t *testing.T, q *Queue, bounds []*query.Bound) []*Ticket {
	t.Helper()
	out := make([]*Ticket, len(bounds))
	for i, b := range bounds {
		tk, err := q.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tk
	}
	return out
}

// awaitRunning waits for each ticket to be Running. Calls are recorded
// when the executor call returns and Running follows it, so waiting for
// Running makes the recorded calls stable.
func awaitRunning(t *testing.T, ts ...*Ticket) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, tk := range ts {
		for tk.State() != StateRunning {
			if time.Now().After(deadline) {
				t.Fatalf("ticket state %v, want running", tk.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// awaitResult waits for the ticket to reach a terminal state and
// returns its result, so a wrong drain fails the test instead of hanging
// it.
func awaitResult(t *testing.T, tk *Ticket) core.QueryResult {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("ticket stuck %v", tk.State())
	}
	return tk.Wait()
}

func closeQueue(t *testing.T, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestBatchDrainFormsBatches choreographs the one drain: while the
// dispatcher is held inside the first query's batch of one, three more
// queries line up; the next dispatch round must drain all three into one
// SubmitBatch instead of three pipeline rounds. A BatchAdmit of 0 or 1
// is a cap of one, not a different path: every ticket still reaches the
// executor through SubmitBatch, alone.
func TestBatchDrainFormsBatches(t *testing.T) {
	for _, tc := range []struct {
		batchAdmit int
		want       []int
	}{
		{8, []int{1, 3}}, // clamped to maxConc=4
		{1, []int{1, 1, 1, 1}},
		{0, []int{1, 1, 1, 1}},
	} {
		t.Run(fmt.Sprintf("BatchAdmit=%d", tc.batchAdmit), func(t *testing.T) {
			f := newFakeExec(4)
			q := NewQueue(f, Config{BatchAdmit: tc.batchAdmit})
			bounds := testBounds(t, 4)

			ts := submitAll(t, q, bounds[:1])
			awaitEntry(t, f) // dispatcher held in SubmitBatch([q1])
			ts = append(ts, submitAll(t, q, bounds[1:])...)
			f.gate <- struct{}{}
			for range tc.want[1:] {
				step(t, f)
			}

			awaitRunning(t, ts...)
			if got := f.sizes(); !slices.Equal(got, tc.want) {
				t.Fatalf("batch sizes %v, want %v", got, tc.want)
			}
			f.finishAll()
			closeQueue(t, q)
		})
	}
}

// TestBatchWholeError: a whole-batch error admitted nothing. Slot
// exhaustion puts the batch of three back at the head of the line whole
// and in FIFO order — ahead of q5, which arrived behind it — and the
// next round admits it as one batch of three again, with no batch-of-one
// round. Any other error re-drives each ticket as its own batch of one.
// Either way every ticket runs, in arrival order.
func TestBatchWholeError(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want []int
	}{
		{"slot-exhaustion", core.ErrTooManyQueries, []int{1, 3, 3, 1}},
		{"other", errors.New("plane unavailable"), []int{1, 3, 1, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeExec(8)
			f.batchErr = map[int]error{1: tc.err}
			q := NewQueue(f, Config{BatchAdmit: 3})
			bounds := testBounds(t, 5)

			ts := submitAll(t, q, bounds[:1])
			awaitEntry(t, f)
			ts = append(ts, submitAll(t, q, bounds[1:])...) // q5 waits behind the cap
			f.gate <- struct{}{}                            // [q1]
			for range tc.want[1:] {
				step(t, f)
			}

			awaitRunning(t, ts...)
			if got := f.sizes(); !slices.Equal(got, tc.want) {
				t.Fatalf("batch sizes %v, want %v", got, tc.want)
			}
			// Every call but the refused one admitted; end to end they
			// are the arrival order.
			var admitted []*query.Bound
			for i := range tc.want {
				if i != 1 {
					admitted = append(admitted, f.call(i)...)
				}
			}
			if !slices.Equal(admitted, bounds) {
				t.Fatal("admission left FIFO order")
			}
			f.finishAll()
			closeQueue(t, q)
		})
	}
}

// TestBatchPerQueryError: a per-query error inside an otherwise
// successful batch fails exactly that ticket; its batchmates run.
func TestBatchPerQueryError(t *testing.T) {
	f := newFakeExec(4)
	boom := errors.New("schema mismatch")
	f.queryErrs = map[int][]error{1: {boom, nil}} // t2 fails, t3 runs
	q := NewQueue(f, Config{BatchAdmit: 4})
	bounds := testBounds(t, 3)

	t1 := submitAll(t, q, bounds[:1])[0]
	awaitEntry(t, f)
	tail := submitAll(t, q, bounds[1:])
	f.gate <- struct{}{} // [q1]
	step(t, f)           // [q2 q3]

	if res := awaitResult(t, tail[0]); !errors.Is(res.Err, boom) {
		t.Fatalf("t2 err = %v, want %v", res.Err, boom)
	}
	awaitRunning(t, t1, tail[1])
	if got := f.sizes(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("batch sizes %v, want [1 2]", got)
	}
	f.finishAll()
	closeQueue(t, q)
}

// TestSlotExhaustionCancelWhileAdmitting: a cancel that lands while its
// batch is Admitting, and the batch is then requeued, finalizes that
// ticket Canceled; its batchmates keep their order.
func TestSlotExhaustionCancelWhileAdmitting(t *testing.T) {
	f := newFakeExec(4)
	f.batchErr = map[int]error{1: core.ErrTooManyQueries}
	q := NewQueue(f, Config{BatchAdmit: 4})
	bounds := testBounds(t, 4)

	t1 := submitAll(t, q, bounds[:1])[0]
	awaitEntry(t, f)
	tail := submitAll(t, q, bounds[1:])
	f.gate <- struct{}{} // [q1]
	awaitEntry(t, f)     // held in [q2 q3 q4]
	if st := tail[1].State(); st != StateAdmitting {
		t.Fatalf("t3 state %v, want admitting", st)
	}
	if !tail[1].Cancel() {
		t.Fatal("cancel of an admitting ticket returned false")
	}
	f.gate <- struct{}{} // slot exhaustion: the batch goes back
	step(t, f)           // [q2 q4]

	if res := awaitResult(t, tail[1]); !errors.Is(res.Err, core.ErrQueryCanceled) || tail[1].State() != StateCanceled {
		t.Fatalf("t3 = %v %v, want canceled", tail[1].State(), res.Err)
	}
	awaitRunning(t, t1, tail[0], tail[2])
	if got := f.call(2); !slices.Equal(got, []*query.Bound{bounds[1], bounds[3]}) {
		t.Fatalf("retried batch has %d queries, want q2, q4 in order", len(got))
	}
	f.finishAll()
	closeQueue(t, q)
}

// TestSlotExhaustionCloseDuringBackoff: a Close whose ctx has expired,
// landing while a batch refused for slot exhaustion is held for its
// retry, leaves every ticket of the batch terminal — none stuck
// Admitting.
func TestSlotExhaustionCloseDuringBackoff(t *testing.T) {
	// Hold the refused batch in its back-off for the whole test, so the
	// Close below lands there and not on a retry.
	defer func(p time.Duration) { retryPause = p }(retryPause)
	retryPause = time.Hour

	f := newFakeExec(4)
	f.batchErr = map[int]error{1: core.ErrTooManyQueries}
	q := NewQueue(f, Config{BatchAdmit: 4})
	bounds := testBounds(t, 4)

	t1 := submitAll(t, q, bounds[:1])[0]
	awaitEntry(t, f)
	tail := submitAll(t, q, bounds[1:])
	f.gate <- struct{}{} // [q1]
	step(t, f)           // [q2 q3 q4] -> slot exhaustion, back-off
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("close = %v, want context.Canceled", err)
	}
	for _, tk := range tail {
		if res := awaitResult(t, tk); !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("ticket ended %v: %v, want %v", tk.State(), res.Err, ErrClosed)
		}
	}
	awaitRunning(t, t1)
	f.finishAll()
	awaitResult(t, t1)
}

// TestLateDeadlineCheckedAtBatchDispatch is the satellite's guarantee:
// a ticket whose queue-wait deadline has passed — even if its timer has
// not fired yet (late timer under load) — must expire at the dispatch
// of its batch, never be admitted inside one. The test simulates the
// late timer by moving the published deadline into the past while the
// ticket waits.
func TestLateDeadlineCheckedAtBatchDispatch(t *testing.T) {
	f := newFakeExec(4)
	q := NewQueue(f, Config{BatchAdmit: 4})
	bounds := testBounds(t, 2)

	t1 := submitAll(t, q, bounds[:1])[0]
	awaitEntry(t, f) // dispatcher held in [q1]
	t2, err := q.SubmitOpts(bounds[1], Options{MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t2.mu.Lock()
	t2.deadline = time.Now().Add(-time.Millisecond)
	t2.mu.Unlock()
	f.gate <- struct{}{} // release q1; dispatcher pops q2 next

	res := awaitResult(t, t2)
	var de *DeadlineError
	if !errors.As(res.Err, &de) {
		t.Fatalf("t2 err = %v, want DeadlineError", res.Err)
	}
	if t2.State() != StateExpired {
		t.Fatalf("t2 state = %v, want StateExpired", t2.State())
	}
	awaitRunning(t, t1)
	if got := f.sizes(); !slices.Equal(got, []int{1}) {
		t.Fatalf("batch sizes %v: the expired ticket reached the executor", got)
	}
	f.finishAll()
	closeQueue(t, q)
}

// TestOnCompleteAndRelease: OnComplete runs once per ticket on every
// terminal path — done, failed, canceled while queued — after Done is
// closed, so it may Wait; Release drops a done ticket's rows once and
// refuses every other ticket.
func TestOnCompleteAndRelease(t *testing.T) {
	f := newFakeExec(4)
	boom := errors.New("schema mismatch")
	f.queryErrs = map[int][]error{1: {boom}}
	q := NewQueue(f, Config{BatchAdmit: 4})
	bounds := testBounds(t, 3)
	completed := make(chan *Ticket, 4) // one per ticket, and room for a wrong fourth
	opts := Options{OnComplete: func(tk *Ticket) {
		tk.Wait()
		completed <- tk
	}}
	submit := func(b *query.Bound) *Ticket {
		tk, err := q.SubmitOpts(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	done := submit(bounds[0])
	awaitEntry(t, f) // dispatcher held in [done]
	failed := submit(bounds[1])
	canceled := submit(bounds[2])
	if !canceled.Cancel() {
		t.Fatal("cancel of a queued ticket refused")
	}
	f.gate <- struct{}{} // [done] runs
	step(t, f)           // [failed] fails on its own error
	awaitRunning(t, done)
	f.mu.Lock()
	f.handles[0].res = core.QueryResult{Rows: []agg.Result{{Ints: []int64{7}, Counts: []int64{1}}}}
	f.mu.Unlock()
	f.finishAll()
	closeQueue(t, q)

	calls := map[*Ticket]int{}
	for range 3 {
		select {
		case tk := <-completed:
			calls[tk]++
		case <-time.After(5 * time.Second):
			t.Fatalf("OnComplete calls so far: %v", calls)
		}
	}
	if calls[done] != 1 || calls[failed] != 1 || calls[canceled] != 1 || len(completed) != 0 {
		t.Fatalf("OnComplete calls %v (+%d more), want one per ticket", calls, len(completed))
	}
	if done.State() != StateDone || failed.State() != StateFailed || canceled.State() != StateCanceled {
		t.Fatalf("states %v %v %v", done.State(), failed.State(), canceled.State())
	}
	if len(done.Wait().Rows) != 1 || done.Released() {
		t.Fatal("done ticket lost its rows before Release")
	}
	if !done.Release() || done.Release() || !done.Released() || done.Wait().Rows != nil {
		t.Fatal("Release must drop a done ticket's rows exactly once")
	}
	if done.State() != StateDone || done.Wait().Err != nil {
		t.Fatal("Release changed the ticket's outcome")
	}
	if failed.Release() || canceled.Release() {
		t.Fatal("Release accepted a ticket that is not done")
	}
}
