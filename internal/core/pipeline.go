package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/dimplane"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
	"cjoin/internal/query"
)

// ErrTooManyQueries is returned by Submit when maxConc query slots are
// already in use.
var ErrTooManyQueries = errors.New("core: maximum concurrent queries reached")

// ErrSchemaMismatch is returned when a query was bound against a star
// schema other than the executor's.
var ErrSchemaMismatch = errors.New("core: query bound against a different star schema")

// ErrQueryCanceled is delivered to a query abandoned via Handle.Cancel.
var ErrQueryCanceled = errors.New("core: query canceled")

// QueryResult is the final output of one registered query.
type QueryResult struct {
	Rows []agg.Result
	Err  error
}

// runningQuery is the pipeline's bookkeeping for one registered query.
type runningQuery struct {
	p    *Pipeline
	slot int
	q    *query.Bound
	aggr *agg.Hash
	sink TupleSink // non-nil: tuples route here instead of aggr (§5)

	resultCh  chan QueryResult
	delivered atomic.Bool
	canceled  atomic.Bool
	// released guards this pipeline's hold on the plane slot: Algorithm 2
	// cleanup and the failure sweep can race (a Cancel in flight when a
	// shard dies reaches both paths), and the plane panics on surplus
	// retires, so the hold must be released exactly once.
	released atomic.Bool

	// Preprocessor-owned scan bookkeeping.
	startPos     int64
	sawStart     bool
	sawFirstPage bool  // the StageFirstPage trace mark is set
	pagesLeft    int64 // -1: wrap-detected; >= 0: partitioned countdown
	// needParts marks the partitions this query scans, indexed by the
	// star's GLOBAL partition order (partition-dealt shards translate
	// through factScan.globalOf). Nil means every partition.
	needParts []bool
	// pruneRanges are the fact-column range constraints the admission
	// derived from the plane's selected dimension key ranges and the
	// fact predicate (zonemap.go); pruneEmpty marks an unsatisfiable
	// constraint set (the query needs zero fact pages anywhere).
	pruneRanges []expr.Range
	pruneEmpty  bool
	// needPages is the page-granular companion of needParts, indexed by
	// the SCAN-LOCAL partition order (activate cuts it against this
	// pipeline's own scan synopses before the Preprocessor is paused).
	// Nil means no page-level information; nil bits means every page of
	// that partition.
	needPages []pageSet

	// Progress accounting (§3.2.3: "the current point in the continuous
	// scan can serve as a reliable progress indicator"). While every page
	// the scan delivers is charged to the query — the common case — its
	// page count is the scan's page clock minus startClock and costs the
	// Preprocessor nothing per query. ownPages >= 0 means the query has
	// left the clock and ownPages is its count: before registration
	// (zero), from the first page delivered only for other queries, and
	// from finish on, which freezes the final value. See pagesScanned.
	pagesTotal atomic.Int64
	clock      *atomic.Int64
	startClock int64
	ownPages   atomic.Int64

	submitted time.Time
	// cleaned closes once the slot is recycled. Closed via markCleaned
	// only: Algorithm 2 cleanup, an Activate rollback, and the Stop sweep
	// can race on shutdown.
	cleaned     chan struct{}
	cleanedOnce sync.Once
}

// needsPart reports whether the query must scan global partition g.
func (rq *runningQuery) needsPart(g int) bool {
	return rq.needParts == nil || rq.needParts[g]
}

// pageNeeded reports whether the query's completion countdown charges
// the given page of SCAN-LOCAL partition part. Pages beyond the bitmap
// (appended after it was cut) are not charged: the countdown covers
// exactly the page set frozen at admission.
func (rq *runningQuery) pageNeeded(part, page int) bool {
	if rq.needPages == nil || rq.needPages[part].bits == nil {
		return true
	}
	bits := rq.needPages[part].bits
	return page < len(bits) && bits[page]
}

// pagesScanned returns the number of fact pages charged to the query so
// far; safe from any goroutine. The Preprocessor detaches a query
// (ownPages.Store) before the clock tick of the first page that is not
// charged to it, so a reader that still sees ownPages < 0 after loading
// the clock loaded a clock value made of charged pages only.
func (rq *runningQuery) pagesScanned() int64 {
	if own := rq.ownPages.Load(); own >= 0 {
		return own
	}
	c := rq.clock.Load()
	if own := rq.ownPages.Load(); own >= 0 {
		return own
	}
	return c - rq.startClock
}

// detachClock moves the query's page count off the scan's clock into
// ownPages. Preprocessor-only; idempotent.
func (rq *runningQuery) detachClock() {
	if rq.ownPages.Load() < 0 {
		rq.ownPages.Store(rq.clock.Load() - rq.startClock)
	}
}

func (rq *runningQuery) markCleaned() {
	rq.cleanedOnce.Do(func() { close(rq.cleaned) })
}

// releaseHold retires this pipeline's hold on the query's plane slot if
// it is still held, reporting whether this was the plane-wide final
// retire. Exactly-once across cleanup and the failure sweep.
func (rq *runningQuery) releaseHold() bool {
	if rq.released.CompareAndSwap(false, true) {
		return rq.p.plane.Retire(rq.slot)
	}
	return false
}

func (rq *runningQuery) deliver(rows []agg.Result, err error) {
	if rq.delivered.CompareAndSwap(false, true) {
		rq.resultCh <- QueryResult{Rows: rows, Err: err}
	}
}

// pipeHandle is the Pipeline's Handle implementation, tracking one
// registered query.
type pipeHandle struct {
	rq *runningQuery
	// submission is the interval from Activate entry until the
	// query-start control tuple entered the pipeline — this shard's part
	// of the paper's "submission time" (§6.2.2, Table 1).
	submission time.Duration
}

var _ Handle = (*pipeHandle)(nil)

// Slot returns the query's CJOIN identifier in [0, maxConc).
func (h *pipeHandle) Slot() int { return h.rq.slot }

// Wait blocks until the query completes one full scan cycle and returns
// its results.
func (h *pipeHandle) Wait() QueryResult { return <-h.rq.resultCh }

// Done returns a channel closed once the query's slot has been fully
// recycled (Algorithm 2 cleanup finished). The result is always delivered
// before Done closes, so Done doubles as a "slot free" signal for
// admission control layered above the pipeline.
func (h *pipeHandle) Done() <-chan struct{} { return h.rq.cleaned }

// Canceled reports whether the query was abandoned via Cancel.
func (h *pipeHandle) Canceled() bool { return h.rq.canceled.Load() }

// Submission reports how long pipeline registration took.
func (h *pipeHandle) Submission() time.Duration { return h.submission }

// Cancel abandons the query without tearing down the pipeline: the result
// ErrQueryCanceled is delivered immediately, and the Preprocessor retires
// the query at the next page boundary, after which the usual end-of-query
// control tuple frees the bit-vector slot for reuse (Algorithm 2). Cancel
// returns true if this call canceled the query; false if the query had
// already completed, failed, or been canceled.
func (h *pipeHandle) Cancel() bool {
	rq := h.rq
	if !rq.delivered.CompareAndSwap(false, true) {
		return false
	}
	rq.canceled.Store(true)
	rq.resultCh <- QueryResult{Err: ErrQueryCanceled}
	// Hand the slot retirement to the Preprocessor. The channel's
	// capacity is maxConc and each query cancels at most once (the CAS
	// above), so the send never blocks on a healthy pipeline; the stop
	// case covers shutdown races.
	select {
	case rq.p.pp.cancels <- rq:
	case <-rq.p.stopCh:
	}
	return true
}

// PagesScanned returns the number of fact pages the continuous scan has
// charged to this query so far.
func (h *pipeHandle) PagesScanned() int64 { return h.rq.pagesScanned() }

// ETA estimates the time to completion from the current processing rate —
// the paper's §3.2.3 "estimated time of completion based on the current
// processing rate of the pipeline". It returns 0 once the query is done
// and false while no progress has been made yet.
func (h *pipeHandle) ETA() (time.Duration, bool) {
	done := h.rq.pagesScanned()
	total := h.rq.pagesTotal.Load()
	if h.rq.delivered.Load() || (total > 0 && done >= total) {
		return 0, true
	}
	if done == 0 || total == 0 {
		return 0, false
	}
	elapsed := time.Since(h.rq.submitted)
	perPage := elapsed / time.Duration(done)
	return time.Duration(total-done) * perPage, true
}

// Progress returns the fraction of the query's scan completed, in [0,1].
func (h *pipeHandle) Progress() float64 {
	total := h.rq.pagesTotal.Load()
	if total <= 0 {
		return 1
	}
	f := float64(h.rq.pagesScanned()) / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// Pipeline is the CJOIN operator: one always-on shared plan evaluating
// every registered star query (§3.1) over its shard of the fact table.
// It is not an executor: internal/shard.Group, the only one, admits a
// query to the plane and enters it here through Activate.
type Pipeline struct {
	cfg  Config
	star *catalog.Star

	// plane owns the write side of the dimension state: slot allocation,
	// admission, and removal happen there exactly once per logical query.
	// The group owns it; every shard pipeline probes it.
	plane      *dimplane.Plane
	partSubset []int
	fault      *fault.Injector

	dimStates   []*dimState
	filterOrder atomic.Pointer[[]int]
	pool        *tuplePool

	pp        *preprocessor
	dist      *distributor
	cleanupCh chan *runningQuery
	stopCh    chan struct{}
	stopped   atomic.Bool
	wg        sync.WaitGroup

	// failure is the terminal Failed state (see failure.go): set exactly
	// once by fail, after which failedCh is closed and the pipeline winds
	// down like Stop — but delivers the typed cause instead of
	// ErrPipelineStopped and releases its plane holds.
	failure  atomic.Pointer[PipelineFailedError]
	failedCh chan struct{}
	logf     func(format string, args ...any)

	// pmMu serializes the pipeline-manager work: admission (Algorithm 1),
	// cleanup (Algorithm 2), and filter reordering (§3.4). The paper runs
	// these in a dedicated Pipeline Manager thread; a mutex gives the
	// same serialization with idiomatic Go.
	pmMu     sync.Mutex
	pmActive bitvec.Vec
	inFlight int
	// live tracks submitted queries until cleanup so Stop can fail any
	// query whose control tuples were dropped mid-shutdown.
	live map[int]*runningQuery

	// om is this pipeline's slice of the telemetry plane, labeled with
	// its shard index; nil handles (no registry) no-op every call.
	om pipeMetrics
}

// pipeMetrics holds the pipeline's pre-resolved metric handles. All
// families carry a "shard" label so N shard pipelines share them.
type pipeMetrics struct {
	pagesRead   *obs.Counter
	prunedPart  *obs.Counter
	prunedZone  *obs.Counter
	zmSkipped   *obs.Counter
	tuplesIn    *obs.Counter
	tuplesOut   *obs.Counter
	cycles      *obs.Counter
	cycleDur    *obs.Histogram
	cyclePages  *obs.Histogram
	retries     *obs.Counter
	failures    *obs.Counter
	filterBatch *obs.Histogram
	// registerStall times preprocessor.register: how long the continuous
	// scan pauses to install one query (§3.3.1).
	registerStall *obs.Histogram
}

func newPipeMetrics(r *obs.Registry, shard int) pipeMetrics {
	if r == nil {
		return pipeMetrics{}
	}
	sh := fmt.Sprintf("%d", shard)
	pruned := r.CounterVec("cjoin_scan_pruned_pages_total",
		"Fact pages pruned from queries' scans at admission, by cause: §5 partition pruning or page-level zone maps.",
		"cause", "shard")
	return pipeMetrics{
		pagesRead: r.CounterVec("cjoin_scan_pages_total",
			"Fact pages read by the continuous scan.", "shard").With(sh),
		prunedPart: pruned.With("partition", sh),
		prunedZone: pruned.With("zonemap", sh),
		zmSkipped: r.CounterVec("cjoin_scan_zonemap_skipped_pages_total",
			"Fact pages the continuous scan physically skipped because no resident query's zone-map bitmap needs them.", "shard").With(sh),
		tuplesIn: r.CounterVec("cjoin_scan_tuples_total",
			"Fact tuples entering the preprocessor.", "shard").With(sh),
		tuplesOut: r.CounterVec("cjoin_scan_tuples_emitted_total",
			"Fact tuples surviving the fact predicates and entering the filter stages.", "shard").With(sh),
		cycles: r.CounterVec("cjoin_scan_cycles_total",
			"Completed cycles of the continuous scan.", "shard").With(sh),
		cycleDur: r.DurationHistogramVec("cjoin_scan_cycle_seconds",
			"Wall time of one full scan cycle.", "shard").With(sh),
		cyclePages: r.HistogramVec("cjoin_scan_cycle_pages",
			"Pages read during one scan cycle (after pruning).",
			obs.ExpBuckets(1, 4, 12), 1, "shard").With(sh),
		retries: r.CounterVec("cjoin_scan_retries_total",
			"Transient scan errors absorbed by page-boundary retry.", "shard").With(sh),
		failures: r.CounterVec("cjoin_pipeline_failures_total",
			"Terminal pipeline failures (escalated scan errors, panics, stalls).", "shard").With(sh),
		filterBatch: r.DurationHistogramVec("cjoin_filter_batch_seconds",
			"Wall time probing one batch through the active filter sequence (1-in-8 sampled).", "shard").With(sh),
		registerStall: r.DurationHistogramVec("cjoin_register_stall_seconds",
			"Time the continuous scan pauses to install one query (Algorithm 1 lines 17-22).", "shard").With(sh),
	}
}

// NewPipeline builds one shard pipeline over the star schema and the
// plane in sc. internal/shard.New is its only caller; call Start before
// Activate.
func NewPipeline(star *catalog.Star, cfg Config, sc ShardConfig) (*Pipeline, error) {
	cfg = cfg.Normalized()
	if len(star.Dims) == 0 {
		return nil, fmt.Errorf("core: star schema has no dimensions")
	}
	p := &Pipeline{
		cfg:        cfg,
		star:       star,
		plane:      sc.Plane,
		partSubset: sc.PartSubset,
		fault:      sc.Fault,
		cleanupCh:  make(chan *runningQuery, cfg.MaxConcurrent+1),
		stopCh:     make(chan struct{}),
		failedCh:   make(chan struct{}),
		logf:       cfg.Logf,
		pmActive:   bitvec.New(cfg.MaxConcurrent),
		live:       make(map[int]*runningQuery),
		om:         newPipeMetrics(sc.Obs, sc.Index),
	}
	for i := range star.Dims {
		p.dimStates = append(p.dimStates, newDimState(star, i, sc.Plane.Store(i)))
	}
	order := []int{}
	p.filterOrder.Store(&order)

	// Page geometry of the continuous scan: a pooled batch holds exactly
	// one decoded page of it.
	ncols, rpp := star.Fact.Heap.NumCols(), star.Fact.Heap.RowsPerPage()
	if parts := star.Partitions(); parts[0].Heap != nil {
		ncols, rpp = parts[0].Heap.NumCols(), parts[0].Heap.RowsPerPage()
	}
	if cfg.FactSource != nil {
		if star.PartCol >= 0 {
			return nil, fmt.Errorf("core: FactSource override is incompatible with a partitioned star")
		}
		if cfg.FactSource.NumCols() != ncols {
			return nil, fmt.Errorf("core: FactSource has %d columns, fact schema has %d", cfg.FactSource.NumCols(), ncols)
		}
		rpp = cfg.FactSource.RowsPerPage()
	}
	words := bitvec.Words(cfg.MaxConcurrent)
	// Enough batches for every slot of the queues this layout creates
	// (the Preprocessor's output plus one per Stage) and one in hand per
	// thread, with the Preprocessor, the Distributor and two spare. A
	// batch holds one fact page.
	stages, workers := stageLayout(cfg, len(star.Dims))
	nBatches := cfg.QueueLen*(len(stages)+1) + len(stages)*workers + 4
	p.pool = newTuplePool(nBatches, rpp, ncols, words, len(star.Dims))
	return p, nil
}

// Start launches the pipeline goroutines.
func (p *Pipeline) Start() {
	pp := newPreprocessor(p)
	stagesOut := p.startStages(pp.out)
	dist := newDistributor(p, stagesOut)

	// Publish pp/dist under the manager lock so a concurrent Stats (e.g.
	// a /stats request racing shard startup) reads either nil or the
	// fully built components, never a torn pointer.
	p.pmMu.Lock()
	p.pp = pp
	p.dist = dist
	p.pmMu.Unlock()

	// Each goroutine carries a panic guard (failure.go): a crash in any
	// of them fails this pipeline instead of the process. pp and dist
	// register their guards inside run so they order correctly against
	// the output-channel close.
	p.wg.Add(3)
	go func() { defer p.wg.Done(); pp.run() }()
	go func() { defer p.wg.Done(); dist.run() }()
	go func() {
		defer p.wg.Done()
		defer p.guard("manager")
		p.managerLoop()
	}()
}

// Stop shuts the pipeline down. In-flight queries receive
// ErrPipelineStopped.
func (p *Pipeline) Stop() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stopCh)
	}
	p.wg.Wait()
	// Batches in flight when the stop signal landed may have been
	// dropped by Stage workers before reaching the Distributor, so some
	// queries' results were never delivered. deliver is idempotent;
	// sweep every query still tracked as live.
	p.pmMu.Lock()
	for _, rq := range p.live {
		rq.deliver(nil, p.terminalErr())
		// Algorithm 2 cleanup will never run for these queries (the
		// manager loop has exited), so complete the Done contract here.
		// A SubmitCtx rollback on the submitter's goroutine can still
		// race this sweep; markCleaned is idempotent.
		rq.markCleaned()
	}
	p.pmMu.Unlock()
}

// managerLoop is the Pipeline Manager's asynchronous half: it performs
// query clean-up (Algorithm 2) and periodic run-time re-optimization of
// the filter order (§3.4) in parallel with the main pipeline.
func (p *Pipeline) managerLoop() {
	var tick <-chan time.Time
	if p.cfg.OptimizeInterval > 0 {
		t := time.NewTicker(p.cfg.OptimizeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case rq := <-p.cleanupCh:
			p.fault.PanicPoint(fault.SiteManager)
			p.cleanup(rq)
		case <-tick:
			p.ReorderFilters()
		case <-p.stopCh:
			// Drain pending cleanups so slots do not leak on shutdown.
			for {
				select {
				case rq := <-p.cleanupCh:
					p.cleanup(rq)
				default:
					return
				}
			}
		}
	}
}

// Activate registers a query that the group's dimension plane has
// already admitted (slot from dimplane.Plane.AdmitBatch) with this
// pipeline's Preprocessor — Algorithm 1, lines 17–22 — and returns its
// handle. It is the one way a query enters a pipeline: internal/shard.Group
// calls it once per shard after one plane admission, which is the whole
// point of the plane — admit once, probe everywhere. A non-nil sink
// receives the query's joined tuples instead of an aggregation operator
// (§5, galaxy joins).
//
// Retirement contract: on success, this pipeline retires the slot
// exactly once through its normal lifecycle (Algorithm 2 cleanup). On
// error the slot has NOT been retired and never will be by this
// pipeline, so the caller must compensate with one Plane.Retire — with
// one exception: ErrPipelineStopped, where delivery is owned by the
// shutdown sweep and the slot is abandoned with the plane. A FAILED
// pipeline returns its *PipelineFailedError instead (never bare
// ErrPipelineStopped), and the caller compensates: the failure sweep
// releases the holds of queries it swept, and a query rejected here was
// never registered, so its hold is still the caller's.
func (p *Pipeline) Activate(ctx context.Context, q *query.Bound, slot int, sink TupleSink) (Handle, error) {
	if f := p.failure.Load(); f != nil {
		return nil, f
	}
	if p.stopped.Load() {
		return nil, ErrPipelineStopped
	}
	if q.Schema != p.star {
		return nil, ErrSchemaMismatch
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	rq := &runningQuery{
		p:         p,
		slot:      slot,
		q:         q,
		sink:      sink,
		resultCh:  make(chan QueryResult, 1),
		submitted: start,
		cleaned:   make(chan struct{}),
	}

	// §5 partition pruning: derive the needed partitions from the
	// partition-key range implied by the query (already installed in the
	// plane's dimension stores).
	if p.star.PartCol >= 0 {
		rq.needParts = p.neededPartitions(q, slot)
	}
	// Zone-map pruning: derive the fact-column ranges and intersect them
	// with this scan's page synopses here, on the submitter's goroutine,
	// so the Preprocessor's stall (register) never pays for it.
	if !p.cfg.DisableZoneMaps {
		rq.pruneRanges, rq.pruneEmpty = pruneRanges(p.star, p.plane, q, slot)
		rq.needPages = p.pp.scan.needPagesFor(rq)
	}

	// Register under the manager lock, re-checking the terminal states:
	// the failure sweep runs under the same lock, so a query is either
	// rejected here (its plane hold stays the caller's to release) or
	// registered in live and guaranteed to be swept — never lost in
	// between.
	p.pmMu.Lock()
	if f := p.failure.Load(); f != nil {
		p.pmMu.Unlock()
		return nil, f
	}
	if p.stopped.Load() {
		p.pmMu.Unlock()
		return nil, ErrPipelineStopped
	}
	p.rebuildFilterOrderLocked()
	p.pmActive.Set(slot)
	p.inFlight++
	p.live[slot] = rq
	p.pmMu.Unlock()

	done := make(chan struct{})
	select {
	case p.pp.cmds <- ppCmd{rq: rq, done: done}:
	case <-ctx.Done():
		// The Preprocessor never saw the query; undo the registration.
		// The plane slot stays admitted — the caller compensates.
		p.deregister(rq)
		rq.markCleaned()
		return nil, ctx.Err()
	case <-p.stopCh:
		return nil, ErrPipelineStopped
	}
	// The installation command is in flight and the stall window is
	// bounded (one page at most), so wait for it rather than abandoning a
	// half-installed query. When the pipeline dies right after the
	// install (both channels ready), the install wins: the handle is
	// valid and the failure sweep delivers its result.
	select {
	case <-done:
	case <-p.stopCh:
		select {
		case <-done:
		default:
			return nil, ErrPipelineStopped
		}
	}
	return &pipeHandle{rq: rq, submission: time.Since(start)}, nil
}

// neededPartitions computes which fact partitions the query must scan by
// correlating its predicates with the partitioning scheme. When the
// partition column is the foreign key of a referenced dimension, the
// admission-time dimension query already identified the selected
// dimension tuples; their key range prunes partitions exactly.
func (p *Pipeline) neededPartitions(q *query.Bound, slot int) []bool {
	return NeededPartitions(p.star, p.plane, q, slot)
}

// NeededPartitions is the §5 pruning primitive as a free function, so a
// shard group can run the same feasibility analysis against its shared
// plane — e.g. to decide whether a query can still be answered exactly
// after a shard holding some partitions has been quarantined. The query
// must already be admitted to the plane at slot.
func NeededPartitions(star *catalog.Star, plane *dimplane.Plane, q *query.Bound, slot int) []bool {
	parts := star.Partitions()
	need := make([]bool, len(parts))
	dimIdx := -1
	for i := range star.Dims {
		if star.FKCol[i] == star.PartCol && q.DimRefs[i] && q.HasDimPred(i) {
			dimIdx = i
			break
		}
	}
	if dimIdx < 0 {
		for i := range need {
			need[i] = true
		}
		return need
	}
	minKey, maxKey, any := plane.SelectedKeyRange(dimIdx, slot)
	if !any {
		return need // query selects no partition-key values: zero pages
	}
	for i, part := range parts {
		if maxKey >= part.MinKey && minKey <= part.MaxKey {
			need[i] = true
		}
	}
	return need
}

// cleanup finishes Algorithm 2 for this pipeline: drop the query from
// the pipeline-manager state and release this pipeline's hold on the
// plane slot. The plane performs the actual bit clearing, entry garbage
// collection, and slot recycling when the last of its probers retires,
// so a slot is never reused while another shard still has the query's
// tuples in flight.
func (p *Pipeline) cleanup(rq *runningQuery) {
	p.deregister(rq)
	if rq.releaseHold() {
		// Final retire: the plane just ran Algorithm 2's removal, so a
		// dimension's shared reference count may have dropped to zero —
		// re-derive the active-filter list. A non-final retire cannot
		// change reference counts; sibling shards refresh their order at
		// their next admission or final cleanup, and probing a
		// refs==0 dimension meanwhile is a no-op.
		p.pmMu.Lock()
		p.rebuildFilterOrderLocked()
		p.pmMu.Unlock()
	}
	rq.markCleaned()
}

// deregister removes a query from the pipeline-manager bookkeeping
// without touching the shared plane. Idempotent: the failure sweep may
// have deregistered the query already while its cleanup command was
// still queued.
func (p *Pipeline) deregister(rq *runningQuery) {
	p.pmMu.Lock()
	if cur, ok := p.live[rq.slot]; ok && cur == rq {
		p.pmActive.Clear(rq.slot)
		p.inFlight--
		delete(p.live, rq.slot)
	}
	p.pmMu.Unlock()
}

// rebuildFilterOrderLocked recomputes the active-filter list, preserving
// the current relative order for filters that remain and appending newly
// activated ones. Callers hold pmMu.
func (p *Pipeline) rebuildFilterOrderLocked() {
	old := *p.filterOrder.Load()
	inOld := make(map[int]bool, len(old))
	var order []int
	for _, d := range old {
		if p.dimStates[d].refCount() > 0 {
			order = append(order, d)
			inOld[d] = true
		}
	}
	for d, ds := range p.dimStates {
		if ds.refCount() > 0 && !inOld[d] {
			order = append(order, d)
		}
	}
	p.filterOrder.Store(&order)
}

// MaxConcurrent returns the pipeline's maxConc bound: the number of
// query slots (and the width of every bit-vector).
func (p *Pipeline) MaxConcurrent() int { return p.cfg.MaxConcurrent }

// ActiveQueries returns the number of queries currently registered.
func (p *Pipeline) ActiveQueries() int {
	p.pmMu.Lock()
	defer p.pmMu.Unlock()
	return p.inFlight
}

// Quiesce blocks until no queries are in flight (useful in tests).
func (p *Pipeline) Quiesce() {
	for p.ActiveQueries() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// Stats is a point-in-time snapshot of pipeline counters.
type Stats struct {
	// CollectedAt is the instant the snapshot was taken. The value
	// carries Go's monotonic clock reading, so two snapshots subtract to
	// a drift-free interval — scrapers divide counter deltas by it to
	// get correct rates (a snapshot re-taken per request has no meaning
	// as a rate without it).
	CollectedAt time.Time

	TuplesScanned int64
	TuplesEmitted int64
	PagesRead     int64
	ScanCycles    int64
	ScanRetries   int64 // transient scan errors absorbed by page-boundary retry
	// Pruning counters: pages charged away from queries at admission
	// (by cause) and pages the scan physically skipped via zone maps.
	PagesPrunedPartition int64
	PagesPrunedZonemap   int64
	PagesSkippedZonemap  int64
	Filters              []FilterStats
	FilterOrder          []string

	// State is the pipeline's serving state; FailureCause carries the
	// terminal failure message for a failed pipeline.
	State        ShardState
	FailureCause string

	// Dimension-plane figures. Admission runs once per logical query on
	// the group's plane and the stores are shared by every prober, so
	// these are reported once per plane: a shard pipeline leaves them
	// zero and the group fills them on its merged snapshot.
	DimAdmits      int64 // queries admitted to the plane
	DimAdmitNanos  int64 // total wall time spent in plane admission
	PlaneBytes     int64 // resident dimension-store bytes
	PlanePeakBytes int64 // high-water mark of PlaneBytes
	PlanePipelines int   // pipelines sharing the plane

	// PR 8 admission-throughput figures, also once per plane.
	PlaneCacheHits    int64 // predicate scans skipped via the scan cache / batch reuse
	PlaneCacheMisses  int64 // cache-enabled resolutions that scanned the heap
	PlanePublishes    int64 // dimension-store COW snapshot publications
	PlaneBatchAdmits  int64 // plane admission rounds (a lone query is a round of one)
	PlaneBatchQueries int64 // queries those rounds admitted (== DimAdmits)
}

// Stats snapshots the pipeline counters and per-filter statistics. It is
// safe to call concurrently with Start and Stop: the preprocessor pointer
// is read under the manager lock (the same snapshot discipline the
// admission tier uses for its counters), and all counters are atomics.
func (p *Pipeline) Stats() Stats {
	p.pmMu.Lock()
	pp := p.pp
	p.pmMu.Unlock()
	s := Stats{CollectedAt: time.Now(), State: ShardHealthy}
	if f := p.failure.Load(); f != nil {
		s.State = ShardFailed
		s.FailureCause = f.Error()
	}
	if pp != nil {
		s.TuplesScanned = pp.tuplesIn.Load()
		s.TuplesEmitted = pp.tuplesOut.Load()
		s.PagesRead = pp.pagesRead.Load()
		s.ScanCycles = pp.scanCycles.Load()
		s.ScanRetries = pp.scanRetries.Load()
		s.PagesPrunedPartition = pp.prunedPartPages.Load()
		s.PagesPrunedZonemap = pp.prunedZonePages.Load()
		s.PagesSkippedZonemap = pp.zmSkippedPages.Load()
	}
	for _, ds := range p.dimStates {
		s.Filters = append(s.Filters, ds.stats())
	}
	for _, d := range *p.filterOrder.Load() {
		s.FilterOrder = append(s.FilterOrder, p.dimStates[d].table.Name)
	}
	return s
}
