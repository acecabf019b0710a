// Package admission puts a bounded FIFO admission queue in front of a
// CJOIN pipeline, converting overload into predictable queueing.
//
// The pipeline itself admits at most maxConc concurrent queries and
// hard-fails the rest (core.ErrTooManyQueries). That is the right
// behavior for the operator — the bit-vector width is fixed at startup —
// but a serving tier wants the paper's actual promise: under hundreds of
// concurrent ad-hoc queries, response time grows predictably instead of
// queries failing (§6.2.2). The Queue accepts every query up to a bound,
// dispatches them to the pipeline strictly in arrival order as slots free
// up, and makes the wait observable: a queued query has a position, a
// wait time so far, and — combined with the pipeline's §3.2.3 progress
// indicators — a meaningful completion estimate.
//
// Admission order is strict FIFO across clients, which is also the
// fairness policy: no query can be overtaken while it waits. Per-client
// counters in Stats expose how capacity was actually shared.
package admission

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/obs"
	"cjoin/internal/query"
)

var (
	// ErrQueueFull is returned by Submit when the waiting line is at
	// Config.MaxQueue.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("admission: queue closed")
	// ErrDeadlineExceeded fails a ticket whose queue wait passed its
	// deadline before a pipeline slot freed up. Surfaced wrapped in a
	// *DeadlineError; match with errors.Is.
	ErrDeadlineExceeded = errors.New("admission: queue-wait deadline exceeded")
)

// DeadlineError is the typed queue-wait-deadline failure. The query
// never reached the pipeline, so a retry is always safe — it maps to
// HTTP 429 (Too Many Requests) with a Retry-After hint, the
// backpressure signal, deliberately distinct from the 503 a draining or
// degraded serving tier returns.
type DeadlineError struct {
	// Waited is how long the ticket queued before its deadline fired.
	Waited time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("admission: queue-wait deadline exceeded after %v", e.Waited.Round(time.Millisecond))
}

// Unwrap keeps errors.Is(err, ErrDeadlineExceeded) working.
func (e *DeadlineError) Unwrap() error { return ErrDeadlineExceeded }

// HTTPStatus maps the error to 429 Too Many Requests.
func (e *DeadlineError) HTTPStatus() int { return http.StatusTooManyRequests }

// Retryable marks the failure as safe to retry after backoff.
func (e *DeadlineError) Retryable() bool { return true }

// RetryAfter is the suggested client backoff, surfaced as the HTTP
// Retry-After header.
func (e *DeadlineError) RetryAfter() time.Duration { return time.Second }

// Config tunes a Queue. The zero value takes defaults from the pipeline.
type Config struct {
	// MaxQueue bounds the number of queries waiting for a slot (beyond
	// the maxConc already running). Default 8 * maxConc.
	MaxQueue int
	// MaxWait is the default per-query queue-wait deadline; a query
	// still waiting after MaxWait fails with ErrDeadlineExceeded.
	// Zero means wait indefinitely.
	MaxWait time.Duration
	// BatchAdmit caps how many queued queries the dispatcher drains into
	// one executor batch — one dimension-plane round and one COW
	// snapshot publication per store for the whole batch. The drain is
	// opportunistic: only queries already waiting (and slots already
	// free) are batched, so batching never delays a lone query. Values
	// <= 1 mean batches of one; values above maxConc are clamped.
	BatchAdmit int
	// Obs is the registry the queue's metric families
	// (cjoin_admission_*) join; their counters are the queue's only
	// counts, which Stats reads. Nil means a private registry.
	Obs *obs.Registry
}

// State is a ticket's lifecycle position.
type State int32

const (
	// StateQueued: waiting for a pipeline slot.
	StateQueued State = iota
	// StateAdmitting: popped from the queue into a batch whose
	// Executor.SubmitBatch is in flight (or backing off to retry).
	StateAdmitting
	// StateRunning: registered with the pipeline (Handle available).
	StateRunning
	// StateDone: completed with results.
	StateDone
	// StateFailed: submission or execution error.
	StateFailed
	// StateCanceled: abandoned via Cancel.
	StateCanceled
	// StateExpired: queue-wait deadline passed before admission.
	StateExpired
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateAdmitting:
		return "admitting"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	case StateExpired:
		return "expired"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateExpired:
		return true
	}
	return false
}

// Options customizes one submission.
type Options struct {
	// Client attributes the query in fairness accounting; empty maps to
	// "default".
	Client string
	// MaxWait overrides Config.MaxWait for this query; negative disables
	// the deadline.
	MaxWait time.Duration
	// OnComplete, when non-nil, is called once when the ticket reaches a
	// terminal state, after Done is closed and outside the ticket's lock,
	// so it may call Wait and Release. It runs on the goroutine that
	// finished the ticket and must not block.
	OnComplete func(*Ticket)
}

// Ticket tracks one query from enqueue to completion.
type Ticket struct {
	q      *Queue
	bound  *query.Bound
	client string

	enqueued time.Time
	// deadline is enqueued + the effective MaxWait (zero: no deadline).
	// Immutable after the ticket enters the fifo; the dispatcher checks
	// it at the dispatch of the ticket's batch, so an expired query is
	// never admitted just because its timer goroutine hasn't run yet.
	deadline time.Time
	timer    *time.Timer

	onComplete func(*Ticket)

	mu            sync.Mutex
	state         State
	handle        core.Handle
	result        core.QueryResult
	released      bool          // Release dropped result.Rows
	waited        time.Duration // time spent queued, fixed at admission
	cancelPending bool
	expirePending bool

	done chan struct{}
}

// Queue is the admission tier over one executor — a shard.Group, or
// anything else implementing core.Executor.
type Queue struct {
	ex  core.Executor
	cfg Config

	// tokens holds one entry per pipeline slot; the dispatcher takes one
	// per ticket it drains and a per-query watcher returns it once the
	// slot is recycled (Handle.Done).
	tokens   chan struct{}
	wake     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once

	mu     sync.Mutex
	fifo   []*Ticket
	closed bool

	running     int
	outstanding int // queued + admitting + running tickets

	// The high-water marks have no telemetry twin; every count lives in
	// om.
	maxDepth  int
	maxWait   time.Duration
	perClient map[string]*ClientStats

	// om is the queue's slice of the telemetry plane and its only
	// counts. Every update runs under mu, so Stats, which reads the
	// handles under mu, is a consistent cut.
	om queueMetrics
}

// queueMetrics holds the queue's metric handles. queueWait's raw sum is
// the total wait behind Stats.MeanWait.
type queueMetrics struct {
	queueWait *obs.Histogram

	submitted, admitted, completed *obs.Counter
	failed, canceled               *obs.Counter
	expired, rejected              *obs.Counter
}

func newQueueMetrics(r *obs.Registry, q *Queue) queueMetrics {
	r.GaugeFunc("cjoin_admission_queue_depth",
		"Queries currently waiting for a pipeline slot.",
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(len(q.fifo))
		})
	r.GaugeFunc("cjoin_admission_running",
		"Admitted queries whose slots have not been recycled yet.",
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(q.running)
		})
	return queueMetrics{
		queueWait: r.DurationHistogram("cjoin_admission_queue_wait_seconds",
			"Queue wait of admitted queries, enqueue to pipeline submission."),
		submitted: r.Counter("cjoin_admission_submitted_total", "Queries accepted into the admission queue."),
		admitted:  r.Counter("cjoin_admission_admitted_total", "Queries dispatched to the pipeline."),
		completed: r.Counter("cjoin_admission_completed_total", "Queries finished with results."),
		failed:    r.Counter("cjoin_admission_failed_total", "Queries failed at submission or during execution."),
		canceled:  r.Counter("cjoin_admission_canceled_total", "Queries abandoned via cancel."),
		expired:   r.Counter("cjoin_admission_expired_total", "Queries whose queue-wait deadline fired before admission."),
		rejected:  r.Counter("cjoin_admission_rejected_total", "Submissions refused because the waiting line was full."),
	}
}

// ClientStats is the fairness ledger for one client.
type ClientStats struct {
	Submitted int64
	Admitted  int64
	Finished  int64
	TotalWait time.Duration
	MaxWait   time.Duration
}

// Stats is a point-in-time snapshot of queue activity.
type Stats struct {
	// Depth is the number of queries currently waiting.
	Depth int
	// Running is the number of admitted, not-yet-recycled queries.
	Running int
	// Capacity is the pipeline's maxConc.
	Capacity int
	// MaxQueue is the waiting-line bound.
	MaxQueue int

	Submitted int64
	Admitted  int64
	Completed int64
	Failed    int64
	Canceled  int64
	Expired   int64
	Rejected  int64

	// MaxDepth is the high-water mark of Depth.
	MaxDepth int
	// MeanWait and MaxWait summarize the queue wait of admitted queries.
	MeanWait time.Duration
	MaxWait  time.Duration

	// PerClient breaks the ledger down by Options.Client.
	PerClient map[string]ClientStats
}

// NewQueue starts the admission tier over ex. The executor must already
// be started.
func NewQueue(ex core.Executor, cfg Config) *Queue {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8 * ex.MaxConcurrent()
	}
	cfg.BatchAdmit = min(max(cfg.BatchAdmit, 1), ex.MaxConcurrent())
	q := &Queue{
		ex:        ex,
		cfg:       cfg,
		tokens:    make(chan struct{}, ex.MaxConcurrent()),
		wake:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		perClient: make(map[string]*ClientStats),
	}
	for i := 0; i < ex.MaxConcurrent(); i++ {
		q.tokens <- struct{}{}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	q.om = newQueueMetrics(cfg.Obs, q)
	go q.dispatch()
	return q
}

// Submit enqueues a bound query and returns its ticket immediately; the
// query starts executing once a pipeline slot frees up in FIFO order.
func (q *Queue) Submit(b *query.Bound) (*Ticket, error) {
	return q.SubmitOpts(b, Options{})
}

// SubmitOpts is Submit with per-query options.
func (q *Queue) SubmitOpts(b *query.Bound, opts Options) (*Ticket, error) {
	client := opts.Client
	if client == "" {
		client = "default"
	}
	t := &Ticket{
		q:          q,
		bound:      b,
		client:     client,
		enqueued:   time.Now(),
		onComplete: opts.OnComplete,
		state:      StateQueued,
		done:       make(chan struct{}),
	}
	maxWait := q.cfg.MaxWait
	if opts.MaxWait != 0 {
		maxWait = opts.MaxWait
	}
	if maxWait > 0 {
		// Fixed before the ticket becomes visible to the dispatcher
		// (the fifo append under q.mu publishes it), so beginAdmit can
		// read it without taking a lock ordering dependency.
		t.deadline = t.enqueued.Add(maxWait)
	}

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if len(q.fifo) >= q.cfg.MaxQueue {
		q.om.rejected.Inc()
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	q.fifo = append(q.fifo, t)
	q.maxDepth = max(q.maxDepth, len(q.fifo))
	q.om.submitted.Inc()
	q.clientLocked(client).Submitted++
	q.outstanding++
	q.mu.Unlock()
	b.Trace.Mark(obs.StageEnqueued)

	if maxWait > 0 {
		t.mu.Lock()
		t.timer = time.AfterFunc(maxWait, t.expire)
		t.mu.Unlock()
	}
	q.signal()
	return t, nil
}

func (q *Queue) clientLocked(name string) *ClientStats {
	cs := q.perClient[name]
	if cs == nil {
		cs = &ClientStats{}
		q.perClient[name] = cs
	}
	return cs
}

func (q *Queue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// expiredTicket pairs a ticket that expired at dispatch with its timer;
// finishWaiting needs q.mu, so the pop loop (which holds it) defers the
// finalization to its caller.
type expiredTicket struct {
	t     *Ticket
	timer *time.Timer
}

// popLocked pops tickets until one can be admitted, or the line is
// empty. Tickets whose queue-wait deadline has already passed expire
// here — at the dispatch of their batch — and are appended to expired
// for the caller to finalize after releasing q.mu. Callers hold q.mu.
func (q *Queue) popLocked(expired *[]expiredTicket) *Ticket {
	now := time.Now()
	for len(q.fifo) > 0 {
		t := q.fifo[0]
		q.fifo = q.fifo[1:]
		switch v, timer := t.beginAdmit(now); v {
		case admitOK:
			return t
		case admitExpired:
			*expired = append(*expired, expiredTicket{t, timer})
		}
		// admitSkip: canceled or expired while waiting; already terminal.
	}
	return nil
}

// next pops the oldest still-queued ticket. With wait it blocks until
// one arrives and returns nil only once the queue is closed and drained
// or stopped; without, it returns nil when none is waiting right now,
// so the batch drain never waits for queries that haven't arrived.
func (q *Queue) next(wait bool) *Ticket {
	for {
		var expired []expiredTicket
		q.mu.Lock()
		t := q.popLocked(&expired)
		closed := q.closed
		q.mu.Unlock()
		for _, e := range expired {
			e.t.finishWaiting(e.timer, StateExpired)
		}
		if t != nil || !wait || closed {
			return t
		}
		select {
		case <-q.wake:
		case <-q.stopCh:
			return nil
		}
	}
}

// dispatch is the admission loop: strict FIFO, one pipeline slot per
// running query. The slot token is acquired before a ticket leaves the
// queue, so a ticket waiting for capacity stays Queued — cancellable and
// subject to its queue-wait deadline — until the moment it can actually
// be admitted. Each round blocks for the first admittable ticket, then
// drains further already-waiting tickets — one free slot token each, up
// to Config.BatchAdmit — and admits the lot in one SubmitBatch, paying
// one dimension-plane round for the batch.
func (q *Queue) dispatch() {
	// On exit, fail every ticket still waiting: the dispatcher is the
	// only goroutine that can admit them. The normal drain path exits
	// with an empty line; this matters when Close's ctx expires mid-work.
	defer func() {
		for {
			q.mu.Lock()
			if len(q.fifo) == 0 {
				q.mu.Unlock()
				return
			}
			t := q.fifo[0]
			q.fifo = q.fifo[1:]
			q.mu.Unlock()
			switch v, timer := t.beginAdmit(time.Now()); v {
			case admitOK:
				t.fail(ErrClosed)
			case admitExpired:
				t.finishWaiting(timer, StateExpired)
			}
		}
	}()
	for {
		select {
		case <-q.tokens:
		case <-q.stopCh:
			return
		}
		t := q.next(true)
		if t == nil {
			return
		}
		// Take (token, ticket) pairs without blocking: batching amortizes
		// work that is already waiting, it never holds a query back
		// hoping for company.
		batch := append(make([]*Ticket, 0, q.cfg.BatchAdmit), t)
	drain:
		for len(batch) < q.cfg.BatchAdmit {
			select {
			case <-q.tokens:
			default:
				break drain
			}
			nt := q.next(false)
			if nt == nil {
				q.tokens <- struct{}{}
				break
			}
			batch = append(batch, nt)
		}
		q.admit(batch)
	}
}

// admit drives one drained batch through the executor. Each ticket
// holds one slot token until it runs or leaves the dispatcher's hands.
// A whole-batch error admitted nothing (dimplane.AdmitBatch is
// all-or-nothing): slot exhaustion retries the batch as it is, and any
// other error is re-driven one ticket at a time, so each query's own
// error — or injected admit fault — lands on its own ticket.
func (q *Queue) admit(batch []*Ticket) {
	err := q.submit(batch)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrTooManyQueries):
		q.retryLater(batch)
	case len(batch) == 1:
		q.reject(batch[0], err)
	default:
		for i, t := range batch {
			err := q.submit(batch[i : i+1])
			if errors.Is(err, core.ErrTooManyQueries) {
				// t and its unprocessed batchmates go back together,
				// in order.
				q.retryLater(batch[i:])
				return
			}
			if err != nil {
				q.reject(t, err)
			}
		}
	}
}

// submit makes one SubmitBatch call for batch. On success every ticket
// runs or, on its own per-query error, fails; a whole-batch error is
// returned with the tickets still Admitting and holding their tokens.
func (q *Queue) submit(batch []*Ticket) error {
	qs := make([]*query.Bound, len(batch))
	for i, t := range batch {
		// Marked before the executor submit: the pipeline can deliver
		// the first page mid-registration, and the timeline must show
		// admitted before first_page. Latest-wins so a retried batch
		// refreshes the mark on the attempt that sticks.
		t.bound.Trace.MarkLatest(obs.StageAdmitted)
		qs[i] = t.bound
	}
	handles, errs, err := q.ex.SubmitBatch(context.Background(), qs)
	if err != nil {
		return err
	}
	for i, t := range batch {
		if errs[i] != nil {
			q.reject(t, errs[i])
			continue
		}
		t.run(handles[i])
		go q.watch(t, handles[i])
	}
	return nil
}

// reject fails a ticket the executor refused and returns its token.
func (q *Queue) reject(t *Ticket, err error) {
	q.tokens <- struct{}{}
	t.fail(err)
}

// retryPause is how long a batch refused for slot exhaustion waits
// before it is retried. A variable so tests can hold a batch there.
var retryPause = 2 * time.Millisecond

// retryLater handles slot exhaustion — a submitter outside the queue
// holds slots: it returns the batch's tokens and, after a short pause,
// puts the batch back at the head of the line in order, giving up no
// FIFO position. The tickets stay in hand during the pause so a
// shutdown can finalize them instead of abandoning them non-terminal.
func (q *Queue) retryLater(batch []*Ticket) {
	for range batch {
		q.tokens <- struct{}{}
	}
	select {
	case <-time.After(retryPause):
		q.requeueFront(batch...)
	case <-q.stopCh:
		for _, t := range batch {
			t.fail(ErrClosed)
		}
	}
}

// watch delivers the ticket's result and returns the slot token once the
// pipeline has recycled the slot.
func (q *Queue) watch(t *Ticket, h core.Handle) {
	res := h.Wait()
	t.complete(res)
	<-h.Done()
	q.tokens <- struct{}{}
	q.mu.Lock()
	q.running--
	q.mu.Unlock()
}

// Close stops admission and drains: new Submits fail with ErrClosed,
// already-queued queries still run to completion, and Close returns once
// every accepted query has reached a terminal state. If ctx expires
// first, the remaining queued tickets are canceled and ctx.Err() is
// returned.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		q.mu.Lock()
		idle := q.outstanding == 0
		q.mu.Unlock()
		if idle {
			q.stopOnce.Do(func() { close(q.stopCh) })
			return nil
		}
		select {
		case <-ctx.Done():
			q.mu.Lock()
			waiting := append([]*Ticket(nil), q.fifo...)
			q.mu.Unlock()
			for _, t := range waiting {
				t.Cancel()
			}
			q.stopOnce.Do(func() { close(q.stopCh) })
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Depth:     len(q.fifo),
		Running:   q.running,
		Capacity:  q.ex.MaxConcurrent(),
		MaxQueue:  q.cfg.MaxQueue,
		Submitted: q.om.submitted.Value(),
		Admitted:  q.om.admitted.Value(),
		Completed: q.om.completed.Value(),
		Failed:    q.om.failed.Value(),
		Canceled:  q.om.canceled.Value(),
		Expired:   q.om.expired.Value(),
		Rejected:  q.om.rejected.Value(),
		MaxDepth:  q.maxDepth,
		MaxWait:   q.maxWait,
		PerClient: make(map[string]ClientStats, len(q.perClient)),
	}
	if s.Admitted > 0 {
		s.MeanWait = time.Duration(q.om.queueWait.RawSum() / s.Admitted)
	}
	for name, cs := range q.perClient {
		s.PerClient[name] = *cs
	}
	return s
}

// --- ticket state machine -------------------------------------------------

// admitVerdict is beginAdmit's decision for a ticket leaving the line.
type admitVerdict int

const (
	// admitOK: the ticket is now Admitting — submit it.
	admitOK admitVerdict = iota
	// admitSkip: the ticket terminalized while queued (canceled or
	// expired by its timer); it finalized itself, skip it.
	admitSkip
	// admitExpired: the ticket's queue-wait deadline passed but its
	// timer has not fired yet — the caller must finalize it with the
	// returned timer. Under batch drain a ticket deep in the batch has
	// its deadline checked here, at the dispatch of *its* batch, so no
	// expired query is ever admitted inside a batch.
	admitExpired
)

// beginAdmit moves a queued ticket to Admitting, unless it terminalized
// while waiting or its deadline has already passed at now. On
// admitExpired the ticket is transitioned under t.mu and the caller
// finalizes it via finishWaiting (which takes q.mu, so it must run
// outside q.mu).
func (t *Ticket) beginAdmit(now time.Time) (admitVerdict, *time.Timer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateQueued {
		return admitSkip, nil
	}
	if !t.deadline.IsZero() && !now.Before(t.deadline) {
		timer := t.transitionLocked(StateExpired, &DeadlineError{Waited: now.Sub(t.enqueued)})
		return admitExpired, timer
	}
	t.state = StateAdmitting
	return admitOK, nil
}

// revertToQueued moves an Admitting ticket back to Queued, honoring any
// cancel or deadline that fired while the ticket was in the
// dispatcher's hands — those finalize the ticket instead. It reports
// whether the ticket is live (caller must reinsert it into the line).
// The whole decision runs under t.mu so it cannot race expire or
// Cancel.
func (t *Ticket) revertToQueued() bool {
	t.mu.Lock()
	if t.state != StateAdmitting {
		t.mu.Unlock()
		return false
	}
	switch {
	case t.cancelPending:
		timer := t.transitionLocked(StateCanceled, core.ErrQueryCanceled)
		t.mu.Unlock()
		t.finishWaiting(timer, StateCanceled)
		return false
	case t.expirePending:
		timer := t.transitionLocked(StateExpired, &DeadlineError{Waited: time.Since(t.enqueued)})
		t.mu.Unlock()
		t.finishWaiting(timer, StateExpired)
		return false
	default:
		t.state = StateQueued
		t.mu.Unlock()
		return true
	}
}

// requeueFront puts Admitting tickets back at the head of the line, in
// order, after a transient submission failure. Tickets with a cancel or
// deadline pending finalize instead (revertToQueued).
func (q *Queue) requeueFront(ts ...*Ticket) {
	live := make([]*Ticket, 0, len(ts))
	for _, t := range ts {
		if t.revertToQueued() {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	q.mu.Lock()
	q.fifo = append(live, q.fifo...)
	q.mu.Unlock()
	q.signal()
}

// run records a successful admission.
func (t *Ticket) run(h core.Handle) {
	waited := time.Since(t.enqueued)
	t.mu.Lock()
	t.handle = h
	t.state = StateRunning
	t.waited = waited
	cancelPending := t.cancelPending
	timer := t.timer
	t.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}

	q := t.q
	q.mu.Lock()
	q.running++
	q.om.admitted.Inc()
	q.om.queueWait.Observe(waited.Nanoseconds())
	q.maxWait = max(q.maxWait, waited)
	cs := q.clientLocked(t.client)
	cs.Admitted++
	cs.TotalWait += waited
	if waited > cs.MaxWait {
		cs.MaxWait = waited
	}
	q.mu.Unlock()

	if cancelPending {
		h.Cancel()
	}
}

// complete records the pipeline's result for a Running ticket.
func (t *Ticket) complete(res core.QueryResult) {
	t.mu.Lock()
	t.result = res
	switch {
	case errors.Is(res.Err, core.ErrQueryCanceled):
		t.state = StateCanceled
	case res.Err != nil:
		t.state = StateFailed
	default:
		t.state = StateDone
	}
	state := t.state
	t.mu.Unlock()
	if state == StateDone {
		t.bound.Trace.Mark(obs.StageDelivered)
	}
	t.finish(state)
}

// fail terminates a never-admitted ticket.
func (t *Ticket) fail(err error) {
	t.mu.Lock()
	if t.state.Terminal() {
		t.mu.Unlock()
		return
	}
	t.state = StateFailed
	t.result = core.QueryResult{Err: err}
	timer := t.timer
	t.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	t.finish(StateFailed)
}

// expire is the queue-wait deadline callback. The state decision happens
// in one critical section: a Queued ticket transitions to Expired on the
// spot, while a deadline firing during the short Admitting window is
// recorded — if the admission goes through the query runs (the wait is
// over either way), but if the dispatcher requeues the ticket the
// deadline takes effect.
func (t *Ticket) expire() {
	t.mu.Lock()
	switch t.state {
	case StateQueued:
		timer := t.transitionLocked(StateExpired, &DeadlineError{Waited: time.Since(t.enqueued)})
		t.mu.Unlock()
		t.finishWaiting(timer, StateExpired)
	case StateAdmitting:
		t.expirePending = true
		t.mu.Unlock()
	default:
		t.mu.Unlock()
	}
}

// Cancel abandons the query. A queued ticket terminates immediately; a
// running one is canceled in the pipeline (Handle.Cancel) and its slot is
// recycled at the next batch boundary. Cancel reports whether this call
// initiated the cancellation.
func (t *Ticket) Cancel() bool {
	t.mu.Lock()
	switch t.state {
	case StateQueued:
		timer := t.transitionLocked(StateCanceled, core.ErrQueryCanceled)
		t.mu.Unlock()
		t.finishWaiting(timer, StateCanceled)
		return true
	case StateAdmitting:
		// Between queue and pipeline: mark it and let run/requeueFront
		// finish the job.
		if t.cancelPending {
			t.mu.Unlock()
			return false
		}
		t.cancelPending = true
		t.mu.Unlock()
		return true
	case StateRunning:
		h := t.handle
		t.mu.Unlock()
		return h.Cancel()
	default:
		t.mu.Unlock()
		return false
	}
}

// transitionLocked records the terminal state of a ticket that never ran.
// Callers hold t.mu (so the decision and the transition are one critical
// section) and must follow up with finishWaiting after unlocking.
func (t *Ticket) transitionLocked(st State, err error) *time.Timer {
	t.state = st
	t.result = core.QueryResult{Err: err}
	t.waited = time.Since(t.enqueued)
	return t.timer
}

// finishWaiting completes the bookkeeping for a ticket terminated while
// waiting. Runs without t.mu held: the dispatcher locks q.mu before t.mu
// (next -> beginAdmit), so nesting them the other way would deadlock.
// The fifo removal keeps dead tickets from consuming MaxQueue capacity
// or inflating Depth/QueuePos; if the dispatcher holds the ticket the
// scan is a no-op and requeueFront observes the terminal state.
func (t *Ticket) finishWaiting(timer *time.Timer, st State) {
	if timer != nil {
		timer.Stop()
	}
	t.q.mu.Lock()
	for i, w := range t.q.fifo {
		if w == t {
			t.q.fifo = append(t.q.fifo[:i], t.q.fifo[i+1:]...)
			break
		}
	}
	t.q.mu.Unlock()
	t.finish(st)
}

// finish is every ticket's last step, run once per ticket outside t.mu:
// settle the queue counters, wake the waiters, then call OnComplete.
func (t *Ticket) finish(st State) {
	t.q.settle(t, st)
	close(t.done)
	if t.onComplete != nil {
		t.onComplete(t)
	}
}

// settle updates queue counters for a ticket reaching a terminal state.
func (q *Queue) settle(t *Ticket, st State) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outstanding--
	switch st {
	case StateDone:
		q.om.completed.Inc()
		q.clientLocked(t.client).Finished++
	case StateFailed:
		q.om.failed.Inc()
		q.clientLocked(t.client).Finished++
	case StateCanceled:
		q.om.canceled.Inc()
		q.clientLocked(t.client).Finished++
	case StateExpired:
		q.om.expired.Inc()
		q.clientLocked(t.client).Finished++
	}
}

// --- ticket observers -----------------------------------------------------

// State returns the ticket's lifecycle position.
func (t *Ticket) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Handle returns the executor's handle, or nil while the query waits.
func (t *Ticket) Handle() core.Handle {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handle
}

// Bound returns the ticket's bound query.
func (t *Ticket) Bound() *query.Bound { return t.bound }

// Client returns the fairness-accounting client name.
func (t *Ticket) Client() string { return t.client }

// Done returns a channel closed when the ticket reaches a terminal state.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket is terminal and returns the result. After
// Release its Rows are nil.
func (t *Ticket) Wait() core.QueryResult {
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result
}

// Release drops a done ticket's result rows, so they are garbage once no
// reader holds them; state, error and timings stay. It is idempotent and
// reports whether this call released them (false when they already were,
// or the ticket is not done).
func (t *Ticket) Release() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateDone || t.released {
		return false
	}
	t.result.Rows = nil
	t.released = true
	return true
}

// Released reports whether Release dropped the ticket's rows.
func (t *Ticket) Released() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.released
}

// QueueWait returns how long the query has waited so far; once the
// ticket leaves the queue (admitted, canceled, or expired) it returns
// the final wait.
func (t *Ticket) QueueWait() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == StateQueued || t.state == StateAdmitting {
		return time.Since(t.enqueued)
	}
	return t.waited
}

// QueuePos returns the ticket's 1-based position in the waiting line, or
// 0 once it left the queue.
func (t *Ticket) QueuePos() int {
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	for i, w := range t.q.fifo {
		if w == t {
			return i + 1
		}
	}
	return 0
}
