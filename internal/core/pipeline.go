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
	to   Reporter  // the logical query this run reports into

	// reported and recycled make each of the run's two reports
	// exactly-once: the Distributor, Algorithm 2 cleanup and the Stop
	// and fail sweeps can all reach the same run.
	reported atomic.Bool
	recycled atomic.Bool

	// Preprocessor-owned scan bookkeeping: the countdown of needed pages
	// not yet delivered (§3.3.2, §5).
	sawFirstPage bool // the StageFirstPage trace mark is set
	pagesLeft    int64
	// pruneRanges are the fact-column range constraints the admission
	// derived from the plane's selected dimension key ranges and the
	// fact predicate (zonemap.go); pruneEmpty marks an unsatisfiable
	// constraint set (the query needs zero fact pages anywhere).
	pruneRanges []expr.Range
	pruneEmpty  bool
	// needPages is the run's page set on each partition of this
	// pipeline's scan, indexed by the SCAN-LOCAL partition order and cut
	// by Activate before the Preprocessor is paused (needPagesFor).
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
}

// pageNeeded reports whether the given page of SCAN-LOCAL partition part
// is in the run's set, frozen at the cut: the countdown charges it, and
// the scan reads it while the run is resident. Pages appended after the
// cut are not in the set.
func (rq *runningQuery) pageNeeded(part, page int) bool {
	ps := &rq.needPages[part]
	return ps.needed > 0 && page < ps.frozen && (ps.bits == nil || ps.bits[page])
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

// report hands the run's outcome to its logical query, exactly once.
func (rq *runningQuery) report(rows []agg.Result, err error) {
	if rq.reported.CompareAndSwap(false, true) {
		rq.to.Report(rq.p.index, rows, err)
	}
}

// recycle tells the logical query that this pipeline has recycled the
// run's slot, exactly once.
func (rq *runningQuery) recycle() {
	if rq.recycled.CompareAndSwap(false, true) {
		rq.to.Recycled()
	}
}

// Run is one shard's part of a logical query, as Activate returns it:
// the query's page counts on this pipeline and its cancel hook. The
// outcome goes to the run's Reporter instead.
type Run struct{ rq *runningQuery }

// Cancel retires the run at the next page boundary; its end-of-query
// control tuple then flows through the pipeline in order and Algorithm
// 2 recycles the slot (§3.3.2). A run that has already reported is left
// alone. The caller cancels each run at most once.
func (r Run) Cancel() {
	rq := r.rq
	if rq.reported.Load() {
		return
	}
	// The channel's capacity is maxConc and each live run is canceled at
	// most once, so the send never blocks on a healthy pipeline; the stop
	// case covers shutdown races.
	select {
	case rq.p.pp.cancels <- rq:
	case <-rq.p.stopCh:
	}
}

// PagesScanned returns the number of fact pages the continuous scan has
// charged to the run so far.
func (r Run) PagesScanned() int64 { return r.rq.pagesScanned() }

// ETA estimates the run's time to completion from the current processing
// rate — the paper's §3.2.3 "estimated time of completion based on the
// current processing rate of the pipeline". It returns 0 once the run
// has reported and false while no progress has been made yet.
func (r Run) ETA() (time.Duration, bool) {
	rq := r.rq
	done := rq.pagesScanned()
	total := rq.pagesTotal.Load()
	if rq.reported.Load() || (total > 0 && done >= total) {
		return 0, true
	}
	if done == 0 || total == 0 {
		return 0, false
	}
	elapsed := time.Since(rq.submitted)
	perPage := elapsed / time.Duration(done)
	return time.Duration(total-done) * perPage, true
}

// Progress returns the fraction of the run's scan completed, in [0,1].
func (r Run) Progress() float64 {
	total := r.rq.pagesTotal.Load()
	if total <= 0 {
		return 1
	}
	f := float64(r.rq.pagesScanned()) / float64(total)
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
	index      int // the shard index runs report under
	partSubset []int
	fault      *fault.Injector

	dimStates   []*dimState
	filterOrder atomic.Pointer[[]int]
	pool        *tuplePool

	pp        *preprocessor
	cleanupCh chan *runningQuery
	stopCh    chan struct{}
	stopped   atomic.Bool
	wg        sync.WaitGroup

	// failure is the terminal Failed state (see failure.go): set exactly
	// once by fail, after which failedCh is closed and the pipeline winds
	// down like Stop — but reports the typed cause instead of
	// ErrPipelineStopped.
	failure  atomic.Pointer[PipelineFailedError]
	failedCh chan struct{}
	logf     func(format string, args ...any)

	// pmMu serializes the pipeline-manager work: admission (Algorithm 1),
	// cleanup (Algorithm 2), and filter reordering (§3.4). The paper runs
	// these in a dedicated Pipeline Manager thread; a mutex gives the
	// same serialization with idiomatic Go.
	pmMu sync.Mutex
	// live tracks activated runs until cleanup so the Stop and fail
	// sweeps can report any run whose control tuples were dropped
	// mid-shutdown. Its size is the number of queries in flight.
	live map[int]*runningQuery

	// om is this pipeline's slice of the telemetry plane, labeled with
	// its shard index. Its counters are the pipeline's only counts:
	// Stats reads them.
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
			"Fact pages the continuous scan physically skipped because no resident query's page set holds them: pages pruned by zone map and pages appended after every resident cut.", "shard").With(sh),
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
	if sc.Obs == nil {
		sc.Obs = obs.NewRegistry()
	}
	p := &Pipeline{
		cfg:        cfg,
		star:       star,
		plane:      sc.Plane,
		index:      sc.Index,
		partSubset: sc.PartSubset,
		fault:      sc.Fault,
		cleanupCh:  make(chan *runningQuery, cfg.MaxConcurrent+1),
		stopCh:     make(chan struct{}),
		failedCh:   make(chan struct{}),
		logf:       cfg.Logf,
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
	nBatches := queueLen*(len(stages)+1) + len(stages)*workers + 4
	p.pool = newTuplePool(nBatches, rpp, ncols, words, len(star.Dims))
	return p, nil
}

// Start launches the pipeline goroutines.
func (p *Pipeline) Start() {
	pp := newPreprocessor(p)
	stagesOut := p.startStages(pp.out)
	dist := newDistributor(p, stagesOut)
	p.pp = pp

	// Each goroutine carries a panic guard (failure.go): a crash in any
	// of them fails this pipeline instead of the process.
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
// ErrPipelineStopped (or the typed failure of a failed pipeline).
func (p *Pipeline) Stop() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stopCh)
	}
	p.wg.Wait()
	// Batches in flight when the stop signal landed may have been
	// dropped by Stage workers before reaching the Distributor, and the
	// manager loop has exited: every run still live is reported and
	// recycled here.
	p.sweep(p.terminalErr())
}

// sweep reports err to every live run and recycles its slot, standing in
// for the Distributor and Algorithm 2 cleanup that will never reach
// them. Stop and fail share it. Activate re-checks the terminal states
// under pmMu, so every run is either registered before them and taken
// here, or rejected. The reports run after the lock is dropped: they
// call into the logical query.
func (p *Pipeline) sweep(err error) {
	p.pmMu.Lock()
	swept := make([]*runningQuery, 0, len(p.live))
	for slot, rq := range p.live {
		swept = append(swept, rq)
		delete(p.live, slot)
	}
	p.pmMu.Unlock()
	for _, rq := range swept {
		rq.report(nil, err)
		rq.recycle()
	}
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
// pipeline's Preprocessor — Algorithm 1, lines 17–22 — and returns this
// shard's run of it. It is the one way a query enters a pipeline:
// internal/shard.Group calls it once per shard after one plane
// admission, which is the whole point of the plane — admit once, probe
// everywhere. The run reports its outcome and its slot recycling to
// `to`, once each (Reporter). A non-nil sink receives the query's joined
// tuples instead of an aggregation operator (§5, galaxy joins); the
// pipeline only ever calls its Consume.
//
// The contract is binary: a nil error means the run will Report and
// Recycled exactly once; an error means it never will. The pipeline
// never touches the slot's plane hold — its logical query owns it.
func (p *Pipeline) Activate(ctx context.Context, q *query.Bound, slot int, sink TupleSink, to Reporter) (Run, error) {
	if p.stopped.Load() {
		return Run{}, p.terminalErr()
	}
	if q.Schema != p.star {
		return Run{}, ErrSchemaMismatch
	}
	if err := ctx.Err(); err != nil {
		return Run{}, err
	}
	rq := &runningQuery{
		p:         p,
		slot:      slot,
		q:         q,
		sink:      sink,
		to:        to,
		submitted: time.Now(),
	}

	// Cut the run's page sets here, on the submitter's goroutine, so the
	// Preprocessor's stall (register) never pays for them: §5 partition
	// pruning from the partition-key range the plane's dimension stores
	// already hold, and zone-map pruning from the fact-column ranges
	// intersected with this scan's page synopses.
	var needParts []bool
	if p.star.PartCol >= 0 {
		needParts = NeededPartitions(p.star, p.plane, q, slot)
	}
	rq.pruneRanges, rq.pruneEmpty = pruneRanges(p.star, p.plane, q, slot)
	rq.needPages = p.pp.scan.needPagesFor(rq, needParts)

	// Register under the manager lock, re-checking the terminal states:
	// the failure sweep runs under the same lock, so a query is either
	// rejected here or registered in live and guaranteed to be swept —
	// never lost in between.
	p.pmMu.Lock()
	if p.stopped.Load() {
		p.pmMu.Unlock()
		return Run{}, p.terminalErr()
	}
	p.rebuildFilterOrderLocked()
	p.live[slot] = rq
	p.pmMu.Unlock()

	done := make(chan struct{})
	var err error
	select {
	case p.pp.cmds <- ppCmd{rq: rq, done: done}:
		// The installation command is in flight and the stall window is
		// bounded (one page at most), so wait for it rather than
		// abandoning a half-installed query. A stop meanwhile leaves the
		// run registered: the sweep, or the cleanup that beat it,
		// reports it.
		select {
		case <-done:
		case <-p.stopCh:
		}
	case <-ctx.Done():
		err = ctx.Err()
	case <-p.stopCh:
		err = p.terminalErr()
	}
	// The Preprocessor never saw a query that failed here: undo the
	// registration — unless a sweep took the run first, in which case the
	// run is valid and the sweep's Report carries the failure.
	if err != nil && p.deregister(rq) {
		return Run{}, err
	}
	return Run{rq}, nil
}

// NeededPartitions is the §5 pruning primitive: which fact partitions,
// in the star's global order, the query must scan. When the partition
// column is the foreign key of a referenced dimension, the admission-time
// dimension query already identified the selected dimension tuples;
// their key range prunes partitions exactly. Activate cuts its page sets
// from it, and a shard group runs the same feasibility analysis against
// its shared plane — e.g. to decide whether a query can still be
// answered exactly after a shard holding some partitions has been
// quarantined. The query must already be admitted to the plane at slot.
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
// the pipeline-manager state and tell its logical query the slot is
// recycled here. The last shard to recycle retires the slot on the plane
// inside that call — bit clearing, entry garbage collection, slot
// recycling — so a slot is never reused while another shard still has
// the query's tuples in flight. That retire may drop a dimension's
// shared reference count to zero, so the active-filter list is
// re-derived after it; sibling shards refresh their order at their next
// admission or cleanup, and probing a refs==0 dimension meanwhile is a
// no-op.
func (p *Pipeline) cleanup(rq *runningQuery) {
	p.deregister(rq)
	rq.recycle()
	p.pmMu.Lock()
	p.rebuildFilterOrderLocked()
	p.pmMu.Unlock()
}

// deregister removes a query from the pipeline-manager bookkeeping and
// reports whether it did: the failure sweep may have taken the query
// already while its cleanup command was still queued.
func (p *Pipeline) deregister(rq *runningQuery) bool {
	p.pmMu.Lock()
	defer p.pmMu.Unlock()
	if cur, ok := p.live[rq.slot]; ok && cur == rq {
		delete(p.live, rq.slot)
		return true
	}
	return false
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
	return len(p.live)
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
	// (by cause) and pages the scan physically skipped within a partition
	// because no resident page set holds them.
	PagesPrunedPartition int64
	PagesPrunedZonemap   int64
	PagesSkippedZonemap  int64
	Filters              []FilterStats
	FilterOrder          []string

	// State is the pipeline's serving state; FailureCause carries the
	// terminal failure message for a failed pipeline.
	State        ShardState
	FailureCause string
}

// Stats snapshots the pipeline counters and per-filter statistics. It
// reads the pipeline's telemetry counters, so it is safe to call
// concurrently with Start and Stop, and it reports exactly what the
// pipeline's /metrics series do.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		CollectedAt:          time.Now(),
		State:                ShardHealthy,
		TuplesScanned:        p.om.tuplesIn.Value(),
		TuplesEmitted:        p.om.tuplesOut.Value(),
		PagesRead:            p.om.pagesRead.Value(),
		ScanCycles:           p.om.cycles.Value(),
		ScanRetries:          p.om.retries.Value(),
		PagesPrunedPartition: p.om.prunedPart.Value(),
		PagesPrunedZonemap:   p.om.prunedZone.Value(),
		PagesSkippedZonemap:  p.om.zmSkipped.Value(),
	}
	if f := p.failure.Load(); f != nil {
		s.State = ShardFailed
		s.FailureCause = f.Error()
	}
	for _, ds := range p.dimStates {
		s.Filters = append(s.Filters, ds.stats())
	}
	for _, d := range *p.filterOrder.Load() {
		s.FilterOrder = append(s.FilterOrder, p.dimStates[d].table.Name)
	}
	return s
}
