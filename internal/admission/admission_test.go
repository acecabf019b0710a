package admission_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

func env(t testing.TB, rows, maxConc int) (*ssb.Dataset, *shard.Group) {
	return envDisk(t, rows, maxConc, disk.Config{})
}

// envDisk generates a dataset on a throttled device, for tests that need
// the continuous scan to take a predictable, nontrivial time.
func envDisk(t testing.TB, rows, maxConc int, dc disk.Config) (*ssb.Dataset, *shard.Group) {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 7, Disk: dc})
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.New(ds.Star, shard.Config{Shards: 1, Core: core.Config{MaxConcurrent: maxConc, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return ds, p
}

func bind(t testing.TB, ds *ssb.Dataset, n int) []*query.Bound {
	t.Helper()
	w := ssb.NewWorkload(ds, 0.1, 3)
	var out []*query.Bound
	for i := 0; i < n; i++ {
		_, text := w.Next()
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// bindFullScans binds n workload queries at selectivity 1: every
// dimension predicate selects every key, so neither §5 nor the zone maps
// prune a page and each query pays a full scan cycle.
func bindFullScans(t testing.TB, ds *ssb.Dataset, n int) []*query.Bound {
	t.Helper()
	w := ssb.NewWorkload(ds, 1, 3)
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

// TestOverloadQueuesInsteadOfFailing is the admission tier's core
// promise: 6x maxConc queries, none rejected, all correct.
func TestOverloadQueuesInsteadOfFailing(t *testing.T) {
	ds, p := env(t, 1200, 4)
	q := admission.NewQueue(p, admission.Config{MaxQueue: 64})

	bounds := bind(t, ds, 24)
	tickets := make([]*admission.Ticket, len(bounds))
	for i, b := range bounds {
		tk, err := q.Submit(b)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		want, err := ref.Execute(bounds[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("query %d diverges from reference", i)
		}
		if tk.State() != admission.StateDone {
			t.Fatalf("query %d state %v", i, tk.State())
		}
	}
	st := q.Stats()
	if st.Rejected != 0 || st.Completed != 24 || st.Admitted != 24 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxDepth == 0 {
		t.Fatal("expected some queueing at 6x capacity")
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	ds, p := env(t, 4000, 1)
	q := admission.NewQueue(p, admission.Config{MaxQueue: 2})
	bounds := bind(t, ds, 8)
	var ok, full int
	var tickets []*admission.Ticket
	for _, b := range bounds {
		tk, err := q.Submit(b)
		switch {
		case err == nil:
			ok++
			tickets = append(tickets, tk)
		case errors.Is(err, admission.ErrQueueFull):
			full++
		default:
			t.Fatal(err)
		}
	}
	if full == 0 {
		t.Fatalf("no rejection with MaxQueue=2 and %d submissions", len(bounds))
	}
	if q.Stats().Rejected != int64(full) {
		t.Fatalf("rejected stat %d want %d", q.Stats().Rejected, full)
	}
	for _, tk := range tickets {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestCancelWhileQueued: a ticket canceled before admission never reaches
// the pipeline, and the queries behind it still run.
func TestCancelWhileQueued(t *testing.T) {
	ds, p := envDisk(t, 2500, 1, disk.Config{SeqBytesPerSec: 25 << 20})
	q := admission.NewQueue(p, admission.Config{MaxQueue: 16})
	bounds := bind(t, ds, 4)

	var tickets []*admission.Ticket
	for _, b := range bounds {
		tk, err := q.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// The last ticket is surely still queued behind slot 0's long scan.
	victim := tickets[len(tickets)-1]
	if !victim.Cancel() {
		t.Fatal("cancel of queued ticket returned false")
	}
	if victim.Cancel() {
		t.Fatal("double cancel returned true")
	}
	res := victim.Wait()
	if !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("canceled ticket result: %v", res.Err)
	}
	if victim.State() != admission.StateCanceled {
		t.Fatalf("state %v", victim.State())
	}
	for _, tk := range tickets[:len(tickets)-1] {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := q.Stats()
	if st.Canceled != 1 || st.Completed != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelWhileRunning: cancel propagates to the pipeline and the slot
// is reused by the next waiter.
func TestCancelWhileRunning(t *testing.T) {
	// Full scans, so the first query pays the whole ~15 ms cycle: pruned
	// to a few pages it can finish between two polls of its state and
	// never be seen running.
	ds, p := envDisk(t, 2500, 1, disk.Config{SeqBytesPerSec: 25 << 20})
	q := admission.NewQueue(p, admission.Config{MaxQueue: 16})
	bounds := bindFullScans(t, ds, 2)

	first, err := q.Submit(bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Submit(bounds[1])
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first to be admitted, then cancel it mid-scan.
	deadline := time.Now().Add(5 * time.Second)
	for first.State() != admission.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first ticket never started running")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !first.Cancel() {
		t.Fatal("cancel of running ticket returned false")
	}
	if res := first.Wait(); !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("result %v", res.Err)
	}
	if res := second.Wait(); res.Err != nil {
		t.Fatalf("second query after canceled slot: %v", res.Err)
	}
}

func TestQueueWaitDeadline(t *testing.T) {
	// ~25 MB/s over ~600 KB of fact pages: one scan cycle takes ~25 ms,
	// far beyond the impatient ticket's deadline. The queries are full
	// scans so the blocker pays the whole cycle: pruned to its ten pages
	// it takes ~5 ms and races the deadline.
	ds, p := envDisk(t, 4000, 1, disk.Config{SeqBytesPerSec: 25 << 20})
	q := admission.NewQueue(p, admission.Config{MaxQueue: 16})
	bounds := bindFullScans(t, ds, 3)

	blocker, err := q.Submit(bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	// The blocker must hold the slot, not still sit in line, when the
	// impatient ticket's clock starts.
	for start := time.Now(); blocker.State() != admission.StateRunning; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("blocker never started running")
		}
		time.Sleep(100 * time.Microsecond)
	}
	impatient, err := q.SubmitOpts(bounds[1], admission.Options{MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := impatient.Wait()
	if !errors.Is(res.Err, admission.ErrDeadlineExceeded) {
		t.Fatalf("impatient result %v", res.Err)
	}
	// The failure is typed for the serving tier: retryable backpressure
	// (429 + Retry-After), not a 5xx — the query never ran.
	var de *admission.DeadlineError
	if !errors.As(res.Err, &de) {
		t.Fatalf("expiry %v is not a *DeadlineError", res.Err)
	}
	if de.HTTPStatus() != 429 || !de.Retryable() || de.RetryAfter() <= 0 {
		t.Fatalf("deadline error contract: status=%d retryable=%v after=%v",
			de.HTTPStatus(), de.Retryable(), de.RetryAfter())
	}
	if de.Waited < 5*time.Millisecond {
		t.Fatalf("DeadlineError.Waited = %v, below the 5ms deadline", de.Waited)
	}
	if impatient.State() != admission.StateExpired {
		t.Fatalf("state %v", impatient.State())
	}
	if w := impatient.QueueWait(); w < 5*time.Millisecond {
		t.Fatalf("expired ticket reports queue wait %v", w)
	}
	// The dead ticket must leave the waiting line immediately, not hold
	// MaxQueue capacity until a slot frees.
	if d := q.Stats().Depth; d != 0 {
		t.Fatalf("queue depth %d after expiry", d)
	}
	if res := blocker.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if q.Stats().Expired != 1 {
		t.Fatalf("stats %+v", q.Stats())
	}
}

func TestCloseDrains(t *testing.T) {
	ds, p := env(t, 800, 2)
	q := admission.NewQueue(p, admission.Config{MaxQueue: 32})
	bounds := bind(t, ds, 8)
	var tickets []*admission.Ticket
	for _, b := range bounds {
		tk, err := q.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(bounds[0]); !errors.Is(err, admission.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	for _, tk := range tickets {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestFairnessAccounting checks FIFO order and the per-client ledger.
func TestFairnessAccounting(t *testing.T) {
	ds, p := envDisk(t, 1500, 1, disk.Config{SeqBytesPerSec: 50 << 20})
	q := admission.NewQueue(p, admission.Config{MaxQueue: 32})
	bounds := bind(t, ds, 6)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	var tickets []*admission.Ticket
	for i, b := range bounds {
		client := "alice"
		if i%2 == 1 {
			client = "bob"
		}
		tk, err := q.SubmitOpts(b, admission.Options{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		wg.Add(1)
		go func(tk *admission.Ticket, id int, client string) {
			defer wg.Done()
			tk.Wait()
			mu.Lock()
			order = append(order, client)
			mu.Unlock()
		}(tk, i, client)
	}
	wg.Wait()
	st := q.Stats()
	a, b := st.PerClient["alice"], st.PerClient["bob"]
	if a.Submitted != 3 || b.Submitted != 3 || a.Admitted != 3 || b.Admitted != 3 {
		t.Fatalf("per-client: alice %+v bob %+v", a, b)
	}
	if a.Finished+b.Finished != 6 {
		t.Fatalf("finished %d", a.Finished+b.Finished)
	}
	// With one slot and FIFO admission the two clients must interleave.
	mu.Lock()
	defer mu.Unlock()
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("admission order not interleaved: %v", order)
	}
}

// TestStatsConsistentUnderChurn: every Stats snapshot is a consistent
// cut of the queue's counters while submitters race cancels and
// queue-wait deadlines. A ticket is counted submitted before it can be
// admitted or finish, so no snapshot may show more admitted, or more
// finished, than submitted, and the per-client ledger, which moves in
// the same critical sections, must sum to the queue's counters. Both
// hold only because every counter moves under the queue's lock, the one
// Stats reads them under.
func TestStatsConsistentUnderChurn(t *testing.T) {
	ds, p := env(t, 1200, 4)
	q := admission.NewQueue(p, admission.Config{MaxQueue: 1024})
	const submitters, perSubmitter = 4, 40
	bounds := bind(t, ds, perSubmitter)

	done := make(chan struct{})
	var readers sync.WaitGroup
	var bad []admission.Stats
	var badMu sync.Mutex
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := q.Stats()
				var ledger admission.ClientStats
				for _, cs := range st.PerClient {
					ledger.Submitted += cs.Submitted
					ledger.Admitted += cs.Admitted
					ledger.Finished += cs.Finished
				}
				finished := st.Completed + st.Failed + st.Canceled + st.Expired
				if st.Admitted > st.Submitted || finished > st.Submitted ||
					ledger.Submitted != st.Submitted || ledger.Admitted != st.Admitted || ledger.Finished != finished {
					badMu.Lock()
					bad = append(bad, st)
					badMu.Unlock()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, b := range bounds {
				var opts admission.Options
				if (i+s)%3 == 1 {
					opts.MaxWait = time.Duration(i%5+1) * 100 * time.Microsecond
				}
				tk, err := q.SubmitOpts(b, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if (i+s)%3 == 2 {
					tk.Cancel()
				}
				if i%4 == 0 {
					tk.Wait()
				}
			}
		}(s)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(done)
	readers.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d inconsistent snapshots, first %+v", len(bad), bad[0])
	}
	st := q.Stats()
	if st.Submitted != submitters*perSubmitter || st.Completed+st.Failed+st.Canceled+st.Expired != st.Submitted {
		t.Fatalf("final counts do not settle every submission: %+v", st)
	}
	if st.Canceled == 0 || st.Expired == 0 || st.Completed == 0 {
		t.Fatalf("churn did not reach every outcome: %+v", st)
	}
}
