// Package server exposes a CJOIN pipeline as a network service: the
// query service layer that turns the reproduction from a library into an
// operable system.
//
// The HTTP/JSON API is deliberately small and maps one-to-one onto the
// paper's operational story:
//
//	POST   /query             submit SQL; 202 + query id (queues under overload)
//	POST   /update            snapshot-isolated write commit (§3.5 HTAP plane)
//	GET    /query/{id}        progress / ETA / pages scanned (§3.2.3)
//	GET    /query/{id}/result block for the decoded rows (served once, then 410)
//	GET    /query/{id}/trace  per-query lifecycle timeline (telemetry plane)
//	DELETE /query/{id}        cancel a queued or running query
//	GET    /stats             pipeline + admission counters
//	GET    /metrics           Prometheus text exposition of Config.Metrics
//	GET    /healthz           liveness
//
// Submissions flow through an admission.Queue, so a full pipeline queues
// instead of erroring; Drain performs a graceful shutdown (stop accepting,
// let queued and running queries finish, quiesce the pipeline).
//
// A done query's rows live until they are delivered: the first /result
// that writes them in full releases them, and rows nobody fetched are
// bounded by Config.MaxResultBytes, oldest released first. Status, error
// and trace outlive the rows; a later /result answers 410 Gone.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/txn"
)

// Config tunes the service layer.
type Config struct {
	// Admission configures the admission queue bounds and default
	// queue-wait deadline.
	Admission admission.Config
	// MaxTracked bounds the number of finished queries kept for status
	// lookups; the oldest finished entries are evicted first.
	// Default 4096.
	MaxTracked int
	// Metrics is the telemetry registry served at GET /metrics
	// (Prometheus text exposition). The server threads it into the
	// admission queue it owns; the executor must have been built over
	// the same registry for the pipeline families to show up. Nil means
	// a private registry, holding only the server's and the queue's
	// families.
	Metrics *obs.Registry
	// MaxTraces bounds the per-query lifecycle traces retained for GET
	// /query/{id}/trace; the oldest are evicted first. Default 1024.
	// Tracing is always on — its cost is a few timestamps per query.
	MaxTraces int
	// MaxResultBytes bounds the rows of done queries that no /result has
	// delivered yet, by the estimate resultBytes makes at completion.
	// Past it the oldest undelivered result is released first; a later
	// fetch answers 410 Gone. Default 256 MiB.
	MaxResultBytes int64
}

// Request body caps: a larger POST body is refused with 413 before it is
// decoded.
const (
	MaxQueryBodyBytes  = 1 << 20
	MaxUpdateBodyBytes = 16 << 20
)

// Why a done query's rows were released — the cause label of
// cjoin_results_released_total.
const (
	releaseDelivered = "delivered" // a /result wrote them in full
	releaseBudget    = "budget"    // oldest undelivered past MaxResultBytes
	releaseEvicted   = "evicted"   // the query left the MaxTracked history
)

// Server is the query service layer over one executor
// (internal/shard.Group, at any shard count).
type Server struct {
	star   *catalog.Star
	txm    *txn.Manager
	exec   core.Executor
	adq    *admission.Queue
	cfg    Config
	tracer *obs.Tracer

	// Write-plane telemetry.
	mCommits    *obs.CounterVec
	mCommitErrs *obs.Counter
	mCommitDur  *obs.Histogram
	mCacheInval *obs.Counter

	// Result-retention telemetry.
	mHeldBytes *obs.Gauge
	mReleased  *obs.CounterVec

	mu       sync.Mutex
	queries  map[string]*served
	order    []string // registration order, for eviction
	seq      int64
	draining bool

	// held lists the done queries whose rows are retained, oldest
	// completion first; heldBytes sums their estimates.
	heldHead, heldTail *served
	heldBytes          int64

	started time.Time
}

// served tracks one submitted query.
type served struct {
	id        string
	sql       string
	bound     *query.Bound
	ticket    *admission.Ticket
	submitted time.Time

	// Result retention, guarded by Server.mu. held is the ticket while
	// its rows are on the server's held list (set by retain, which can
	// run before ticket is); gone names the release cause once they are
	// released.
	held       *admission.Ticket
	bytes      int64
	prev, next *served
	gone       string
}

// New builds the service layer. The executor must already be started;
// the server creates and owns the admission queue in front of it.
func New(star *catalog.Star, txm *txn.Manager, exec core.Executor, cfg Config) *Server {
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = 4096
	}
	if cfg.MaxResultBytes <= 0 {
		cfg.MaxResultBytes = 256 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	// The admission queue records its stage metrics in the same registry
	// /metrics serves.
	acfg := cfg.Admission
	acfg.Obs = cfg.Metrics
	s := &Server{
		star:    star,
		txm:     txm,
		exec:    exec,
		adq:     admission.NewQueue(exec, acfg),
		cfg:     cfg,
		tracer:  obs.NewTracer(cfg.MaxTraces),
		queries: make(map[string]*served),
		started: time.Now(),

		mCommits: cfg.Metrics.CounterVec("cjoin_commits_total",
			"Write-plane commits published, by kind (append|delete|dim_update).", "kind"),
		mCommitErrs: cfg.Metrics.Counter("cjoin_commit_errors_total",
			"Write-plane commits whose apply failed; no snapshot was published."),
		mCommitDur: cfg.Metrics.DurationHistogram("cjoin_commit_seconds",
			"Write-plane commit latency, apply through publish."),
		mCacheInval: cfg.Metrics.Counter("cjoin_dimcache_invalidations_total",
			"Committed dimension-cell rewrites; each makes that dimension's cached predicate scans stale."),

		mHeldBytes: cfg.Metrics.Gauge("cjoin_results_retained_bytes",
			"Estimated bytes of done queries' rows not delivered yet, bounded by -result-mem."),
		mReleased: cfg.Metrics.CounterVec("cjoin_results_released_total",
			"Done queries' rows released, by cause (delivered|budget|evicted).", "cause"),
	}
	for _, cause := range []string{releaseDelivered, releaseBudget, releaseEvicted} {
		s.mReleased.With(cause)
	}
	return s
}

// Queue returns the underlying admission queue.
func (s *Server) Queue() *admission.Queue { return s.adq }

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleSubmit)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /query/{id}", s.handleStatus)
	mux.HandleFunc("GET /query/{id}/result", s.handleResult)
	mux.HandleFunc("GET /query/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /query/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// handleHealth is the supervision-aware liveness probe:
//
//	200 {"state":"ok"}        every shard serving
//	200 {"state":"degraded"}  shards quarantined, survivors serving
//	200 {"state":"draining"}  graceful shutdown, in-flight work finishing
//	503 {"state":"failed"}    no serving capacity left
//
// Degraded and draining stay 200 deliberately: the process is alive and
// either still answers queries or is finishing the ones it accepted —
// only total capacity loss flips the probe. The body and /stats carry
// the per-shard detail for operators and alerting.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusOK, HealthResponse{State: "draining"})
		return
	}
	h := s.exec.Health()
	out := HealthResponse{State: h.State}
	for _, sh := range h.Shards {
		out.Shards = append(out.Shards, ShardHealth{
			Shard: sh.Shard,
			State: string(sh.State),
			Cause: sh.Cause,
		})
	}
	code := http.StatusOK
	if h.State == "failed" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

// Drain performs a graceful shutdown of the query layer: new submissions
// are rejected with 503, queued and running queries finish (unless ctx
// expires first, which cancels the still-queued ones), and the pipeline
// is quiesced. The caller still owns pipeline Stop and the HTTP
// listener.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.adq.Close(ctx)
	s.exec.Quiesce()
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// On failure it answers 413 (over the cap) or 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// statusCoder lets typed errors carry their own HTTP mapping — e.g.
// shard.RangePartitionedError reports 422 Unprocessable Entity, since
// the request is well-formed but the executor topology cannot run it.
// The server depends on the interface only, never on the error types.
type statusCoder interface{ HTTPStatus() int }

// errStatus returns the error's own HTTP status when it carries one,
// else fallback.
func errStatus(err error, fallback int) int {
	var sc statusCoder
	if errors.As(err, &sc) {
		return sc.HTTPStatus()
	}
	return fallback
}

// retryAfterer marks typed errors whose condition is transient — an
// expired queue wait (admission.DeadlineError), a quarantined shard
// (shard.ShardFailedError) — and carries the suggested backoff.
type retryAfterer interface{ RetryAfter() time.Duration }

// setRetryAfter surfaces a typed error's backoff hint as the standard
// Retry-After header, so clients (and internal/server/client) can
// distinguish "back off and retry" from hard failures.
func setRetryAfter(w http.ResponseWriter, err error) {
	var ra retryAfterer
	if !errors.As(err, &ra) {
		return
	}
	secs := int((ra.RetryAfter() + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, MaxQueryBodyBytes, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "missing \"sql\"")
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	b, err := query.ParseBind(req.SQL, s.star)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	b.Snapshot = s.txm.Begin()

	// The query id is minted before submission so the lifecycle trace
	// can ride the Bound from the first admission mark on; a rejected
	// submission drops the trace again.
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("q-%06d", s.seq)
	s.mu.Unlock()
	b.Trace = s.tracer.Start(id)

	sv := &served{id: id, sql: req.SQL, bound: b, submitted: time.Now()}
	ticket, err := s.adq.SubmitOpts(b, admission.Options{
		Client:     req.Client,
		MaxWait:    time.Duration(req.MaxWaitMillis) * time.Millisecond,
		OnComplete: func(t *admission.Ticket) { s.retain(sv, t) },
	})
	if err != nil {
		s.tracer.Drop(id)
	}
	switch {
	case errors.Is(err, admission.ErrQueueFull):
		// Pure backpressure: the queue will drain at the pipeline's pace.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "admission queue full")
		return
	case errors.Is(err, admission.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		setRetryAfter(w, err)
		writeErr(w, errStatus(err, http.StatusInternalServerError), "%v", err)
		return
	}

	s.mu.Lock()
	sv.ticket = ticket
	s.queries[sv.id] = sv
	s.order = append(s.order, sv.id)
	s.evictLocked()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, s.status(sv, false))
}

// evictLookahead bounds how many still-live queries one eviction sweep
// steps over before giving up: the sweep runs under s.mu on every
// submission, so it must not walk the whole registration order.
const evictLookahead = 64

// evictLocked drops the oldest finished queries beyond cfg.MaxTracked,
// in registration order. It pops from the head of order while over the
// cap, so a submission pays for the one entry it pushes the table over
// by; entries still queued or running are never evicted — the sweep
// steps over up to evictLookahead of them, keeping their place.
func (s *Server) evictLocked() {
	over := len(s.queries) - s.cfg.MaxTracked
	var live [evictLookahead]string
	n, i := 0, 0
	for ; over > 0 && i < len(s.order) && n < len(live); i++ {
		id := s.order[i]
		if sv := s.queries[id]; sv.ticket.State().Terminal() {
			s.releaseLocked(sv, sv.ticket, releaseEvicted)
			delete(s.queries, id)
			s.tracer.Drop(id)
			over--
			continue
		}
		live[n] = id
		n++
	}
	// Put the stepped-over entries back at the new head, order intact.
	copy(s.order[i-n:i], live[:n])
	s.order = s.order[i-n:]
}

func (s *Server) lookup(r *http.Request) (*served, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.queries[r.PathValue("id")]
	return sv, ok
}

// status builds the QueryStatus snapshot; withSQL controls echoing the
// query text (status endpoint only, to keep submit responses lean).
func (s *Server) status(sv *served, withSQL bool) QueryStatus {
	t := sv.ticket
	st := QueryStatus{
		ID:              sv.id,
		State:           t.State().String(),
		QueueWaitMillis: t.QueueWait().Milliseconds(),
		QueuePos:        t.QueuePos(),
		Slot:            -1,
	}
	if withSQL {
		st.SQL = sv.sql
	}
	if h := t.Handle(); h != nil {
		st.Progress = h.Progress()
		st.PagesScanned = h.PagesScanned()
		st.SubmissionMicros = h.Submission().Microseconds()
		st.Slot = h.Slot()
		if eta, ok := h.ETA(); ok {
			st.ETAKnown = true
			st.ETAMillis = eta.Milliseconds()
		}
	}
	if state := t.State(); state.Terminal() {
		res := t.Wait()
		if res.Err != nil {
			st.Error = res.Err.Error()
		}
		if state == admission.StateDone {
			st.Progress = 1
			st.ETAKnown = true
			st.ETAMillis = 0
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(sv, true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	wait := r.Context().Done()
	var timeout <-chan time.Time
	if tq := r.URL.Query().Get("timeout"); tq != "" {
		d, err := time.ParseDuration(tq)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad timeout %q: %v", tq, err)
			return
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-sv.ticket.Done():
	case <-wait:
		return // client went away
	case <-timeout:
		writeErr(w, http.StatusRequestTimeout, "query %s still %s", sv.id, sv.ticket.State())
		return
	}

	res := sv.ticket.Wait()
	if res.Err != nil {
		// Most failures (cancellation, expiry, pipeline stop) stay 200
		// with the error in the body — the query was served, its outcome
		// is the resource. Typed errors that know their HTTP status
		// (e.g. an executor rejecting the query as unprocessable, 422)
		// surface it here, since admission dispatch is asynchronous and
		// the submit response has long been sent.
		setRetryAfter(w, res.Err)
		writeJSON(w, errStatus(res.Err, http.StatusOK), ResultResponse{
			ID:            sv.id,
			State:         sv.ticket.State().String(),
			ElapsedMillis: time.Since(sv.submitted).Milliseconds(),
			Error:         res.Err.Error(),
		})
		return
	}
	if res.Rows == nil && sv.ticket.Released() {
		s.mu.Lock()
		cause := sv.gone
		s.mu.Unlock()
		writeErr(w, http.StatusGone, "result of query %s was released: %s", sv.id, goneReason[cause])
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	err := encodeResult(w, sv.id, sv.bound, res.Rows, time.Since(sv.submitted).Milliseconds())
	// Only a body written in full, to a client still there, is a
	// delivery; anything else keeps the rows for the next fetch. The
	// last few KB may still sit in net/http's buffer: flushing them here
	// would split every small response into a chunked body and a
	// terminator, a second write the client waits for.
	if err == nil && r.Context().Err() == nil {
		s.mu.Lock()
		s.releaseLocked(sv, sv.ticket, releaseDelivered)
		s.mu.Unlock()
	}
}

// goneReason is the 410 body's explanation, by release cause.
var goneReason = map[string]string{
	releaseDelivered: "it was already delivered, and results are served once",
	releaseBudget:    "undelivered results exceeded the server's result memory budget (-result-mem)",
	releaseEvicted:   "the query left the server's finished-query history",
}

// resultBytes estimates what n result rows of b hold: three slice
// headers per agg.Result plus its group, int and count words.
func resultBytes(b *query.Bound, n int) int64 {
	return int64(n) * (3*24 + 8*int64(len(b.GroupBy)+2*len(b.Aggs)))
}

// retain is the tickets' OnComplete hook. A done query's rows join the
// held list at their estimated size, and while the list is over
// MaxResultBytes the oldest undelivered result is released. A query
// already released (delivered or evicted before this ran) is skipped.
func (s *Server) retain(sv *served, t *admission.Ticket) {
	if t.State() != admission.StateDone {
		return
	}
	n := resultBytes(sv.bound, len(t.Wait().Rows))
	s.mu.Lock()
	defer s.mu.Unlock()
	if sv.gone != "" {
		return
	}
	sv.held, sv.bytes, sv.prev = t, n, s.heldTail
	if s.heldTail != nil {
		s.heldTail.next = sv
	} else {
		s.heldHead = sv
	}
	s.heldTail = sv
	s.heldBytes += n
	for s.heldBytes > s.cfg.MaxResultBytes {
		s.releaseLocked(s.heldHead, s.heldHead.held, releaseBudget)
	}
	s.mHeldBytes.Set(s.heldBytes)
}

// releaseLocked drops sv's rows for cause: it takes sv off the held list
// and releases its ticket's rows. It is idempotent; the first cause is
// the one a later 410 names and the only one counted. Callers hold s.mu.
func (s *Server) releaseLocked(sv *served, t *admission.Ticket, cause string) {
	if sv.gone != "" {
		return
	}
	sv.gone = cause
	if sv.held != nil {
		if sv.prev != nil {
			sv.prev.next = sv.next
		} else {
			s.heldHead = sv.next
		}
		if sv.next != nil {
			sv.next.prev = sv.prev
		} else {
			s.heldTail = sv.prev
		}
		s.heldBytes -= sv.bytes
		sv.held, sv.prev, sv.next = nil, nil, nil
		s.mHeldBytes.Set(s.heldBytes)
	}
	if t.Release() {
		s.mReleased.With(cause).Inc()
	}
}

// handleTrace serves the query's lifecycle timeline: every stage mark
// recorded since submission, with per-stage durations. The trace store
// is bounded (Config.MaxTraces), so very old queries may have lost
// theirs even while /query/{id} still answers.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.tracer.Get(id)
	if tr == nil {
		writeErr(w, http.StatusNotFound, "no trace for query %q", id)
		return
	}
	out := TraceResponse{
		ID:                  id,
		StartedAtUnixMillis: tr.StartedAt().UnixMilli(),
		Complete:            tr.Has(obs.StageDelivered),
	}
	var prev time.Duration
	for _, m := range tr.Stages() {
		out.Stages = append(out.Stages, TraceStage{
			Stage:           m.Stage,
			OffsetMicros:    m.At.Microseconds(),
			SincePrevMicros: (m.At - prev).Microseconds(),
		})
		prev = m.At
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WritePrometheus(w)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown query %q", r.PathValue("id"))
		return
	}
	canceled := sv.ticket.Cancel()
	writeJSON(w, http.StatusOK, CancelResponse{
		ID:       sv.id,
		Canceled: canceled,
		State:    sv.ticket.State().String(),
	})
}

// wireStats converts a core.Stats snapshot to its wire form.
func wireStats(ps core.Stats) PipelineStats {
	out := PipelineStats{
		TuplesScanned:        ps.TuplesScanned,
		TuplesEmitted:        ps.TuplesEmitted,
		PagesRead:            ps.PagesRead,
		ScanCycles:           ps.ScanCycles,
		ScanRetries:          ps.ScanRetries,
		PagesPrunedPartition: ps.PagesPrunedPartition,
		PagesPrunedZonemap:   ps.PagesPrunedZonemap,
		PagesSkippedZonemap:  ps.PagesSkippedZonemap,
		State:                string(ps.State),
		FailureCause:         ps.FailureCause,
		FilterOrder:          ps.FilterOrder,
	}
	if !ps.CollectedAt.IsZero() {
		out.CollectedAtUnixMillis = ps.CollectedAt.UnixMilli()
	}
	for _, f := range ps.Filters {
		out.Filters = append(out.Filters, FilterStats{
			Dimension: f.Dimension,
			Stored:    f.Stored,
			TuplesIn:  f.TuplesIn,
			Probes:    f.Probes,
			Drops:     f.Drops,
			DropRate:  f.DropRate(),
		})
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Each of these snapshots is internally consistent: the executor and
	// the admission queue take their counters under their own locks, so a
	// /stats racing shard startup or drain sees either the old or the new
	// state, never a torn one. The merged totals and the per-shard
	// breakdown come from the same snapshot, so the breakdown always sums
	// exactly to the totals.
	ps, perShard := s.exec.StatsWithShards()
	as := s.adq.Stats()

	pipeline := wireStats(ps)
	// The plane is admitted to once and shared by every shard, so its
	// figures fill the merged entry only.
	pl := s.exec.PlaneStats()
	pipeline.DimAdmits = pl.Admits
	pipeline.DimAdmitMicros = pl.AdmitNanos / 1000
	pipeline.PlaneBytes = pl.MemBytes
	pipeline.PlanePeakBytes = pl.PeakMemBytes
	pipeline.PlaneCacheHits = pl.CacheHits
	pipeline.PlaneCacheMisses = pl.CacheMisses
	pipeline.PlanePublishes = pl.SnapshotPublishes
	pipeline.PlaneBatchAdmits = pl.BatchAdmits
	pipeline.PlaneBatchQueries = pl.BatchQueries
	pipeline.MaxConcurrent = s.exec.MaxConcurrent()
	pipeline.Active = s.exec.ActiveQueries()
	if s.star.PartCol >= 0 {
		pipeline.Partitions = len(s.star.Partitions())
	}

	out := StatsResponse{
		UptimeMillis: time.Since(s.started).Milliseconds(),
		Pipeline:     pipeline,
		Admission: AdmissionStats{
			Depth:          as.Depth,
			Running:        as.Running,
			Capacity:       as.Capacity,
			MaxQueue:       as.MaxQueue,
			Submitted:      as.Submitted,
			Admitted:       as.Admitted,
			Completed:      as.Completed,
			Failed:         as.Failed,
			Canceled:       as.Canceled,
			Expired:        as.Expired,
			Rejected:       as.Rejected,
			MaxDepth:       as.MaxDepth,
			MeanWaitMillis: float64(as.MeanWait) / float64(time.Millisecond),
			MaxWaitMillis:  float64(as.MaxWait) / float64(time.Millisecond),
			PerClient:      make(map[string]ClientStats, len(as.PerClient)),
		},
		Queries: make(map[string]int),
	}
	out.Degraded = s.exec.Health().Degraded()
	subs := s.exec.ShardPartitions()
	for i, st := range perShard {
		if st.State == core.ShardHealthy {
			// The shards still serving: the pipelines probing the plane.
			out.Pipeline.PlanePipelines++
		}
		ws := wireStats(st)
		if i < len(subs) {
			ws.Partitions = len(subs[i])
		}
		out.Shards = append(out.Shards, ws)
	}
	for name, cs := range as.PerClient {
		c := ClientStats{
			Submitted:       cs.Submitted,
			Admitted:        cs.Admitted,
			Finished:        cs.Finished,
			MaxWaitMillis:   float64(cs.MaxWait) / float64(time.Millisecond),
			TotalWaitMillis: float64(cs.TotalWait) / float64(time.Millisecond),
		}
		if cs.Admitted > 0 {
			c.MeanWaitMillis = c.TotalWaitMillis / float64(cs.Admitted)
		}
		out.Admission.PerClient[name] = c
	}

	s.mu.Lock()
	out.Draining = s.draining
	for _, sv := range s.queries {
		out.Queries[sv.ticket.State().String()]++
	}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, out)
}

// DecodeResults converts raw aggregation output into JSON-friendly rows:
// dictionary-encoded group columns decode to strings, AVG aggregates to
// float64, everything else stays int64. /result no longer builds it (see
// encodeResult); it is the boxed reference its tests compare against.
func DecodeResults(b *query.Bound, rows []agg.Result) [][]any {
	out := make([][]any, 0, len(rows))
	for _, r := range rows {
		line := make([]any, 0, len(r.Group)+len(r.Ints))
		for gi, gv := range r.Group {
			line = append(line, decodeGroupValue(b, gi, gv))
		}
		for ai := range r.Ints {
			spec := b.Aggs[ai]
			if spec.Fn == agg.Avg {
				line = append(line, r.Value(ai, spec))
			} else {
				line = append(line, r.Ints[ai])
			}
		}
		out = append(out, line)
	}
	return out
}

func decodeGroupValue(b *query.Bound, gi int, v int64) any {
	if d := groupDict(b, gi); d != nil {
		if s, ok := d.Decode(v); ok {
			return s
		}
	}
	return v
}

// groupDict returns the dictionary that decodes group column gi, or nil
// when the column's values are plain integers.
func groupDict(b *query.Bound, gi int) *catalog.Dict {
	col, ok := b.GroupBy[gi].(expr.Col)
	if !ok {
		return nil
	}
	tab := b.Schema.Fact
	if col.Slot > 0 {
		tab = b.Schema.Dims[col.Slot-1]
	}
	return tab.Dicts[col.Idx]
}
