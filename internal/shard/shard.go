// Package shard is CJOIN's executor: Group runs N ≥ 1 fact-partitioned
// CJOIN pipelines behind one core.Executor. One shard is the paper's
// single pipeline; more are the horizontal scaling tier.
//
// The paper's CJOIN bounds throughput at one pipeline's continuous scan
// rate: every registered query rides the same scan, so adding cores past
// the Stage thread sweet spot buys nothing. Group breaks that bound the
// way partitioned analytic engines do: the fact table is split across N
// inner Pipelines, each with its own continuous scan, Filter stages, and
// Stage layout. A logical query is admitted once — slot and dimension
// state live on the group's shared internal/dimplane.Plane — then
// activated on every shard, and each shard aggregates the fact tuples of
// its own fraction. When all shards complete the cycle, the per-shard
// partial aggregates are merged associatively (agg.Merge), and ORDER BY /
// LIMIT are applied once at the group level, so results are exactly those
// of a single pipeline over the whole fact table.
//
// How the fact table is split depends on its physical layout:
//
//   - An unpartitioned heap is page-strided: pages are dealt round-robin
//     across shards. Page p always belongs to shard p mod N, at
//     shard-local index p div N — positions stay stable as the heap
//     grows, preserving the §3.3.3 requirement that the continuous scan
//     can start and finalize queries at exact positions.
//   - A range-partitioned star (§5) has WHOLE partitions dealt to shards
//     (DealPartitions), balanced by page count so date-skew does not pile
//     onto one shard. Each shard cycles over its own partition subset,
//     which keeps §5 partition pruning intact: a query tagged with the
//     partitions it needs scans, on every shard, only the needed ∩ dealt
//     subset, and the per-shard page charges sum exactly to the single-
//     pipeline pruned count.
//
// Dimension state is NOT replicated across shards: the group owns one
// internal/dimplane.Plane, a logical query is admitted to it exactly
// once (slot allocation + dimension-table installation), and each
// shard's Filter stages probe the same copy-on-write snapshots
// lock-free. Submit is therefore admit-once + fan-out-activate, and the
// paper's admission-cost term stays flat in shard count instead of
// multiplying by N.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
	"cjoin/internal/query"
)

// RangePartitionedError reports the one range-partitioned topology a
// Group cannot run: more shards than partitions. Whole partitions are
// the sharding unit (pruning owns the scan order inside each), so every
// shard needs at least one — request fewer shards, or partition the
// fact table finer.
//
// The type is exported so callers can distinguish a topology
// misconfiguration from transient failures; it maps itself to HTTP 422
// (Unprocessable Entity) for service layers that surface it.
type RangePartitionedError struct {
	// Shards is the requested shard count.
	Shards int
	// Partitions is the star's range-partition count.
	Partitions int
}

func (e *RangePartitionedError) Error() string {
	return fmt.Sprintf("shard: cannot deal a range-partitioned star's %d partitions to %d shards; whole partitions are the sharding unit — run -shards <= %d, or partition the fact table finer",
		e.Partitions, e.Shards, e.Partitions)
}

// HTTPStatus maps the error to 422 Unprocessable Entity.
func (e *RangePartitionedError) HTTPStatus() int { return 422 }

// Config tunes a Group.
type Config struct {
	// Shards is the number of inner pipelines. <= 1 means one pipeline
	// over the whole fact table.
	Shards int
	// Core configures each inner pipeline. Workers is the total Stage
	// thread budget for the whole group and is divided evenly across
	// shards (minimum 1 per shard); FactSource, if set, is the base
	// source the pages of which are strided across shards (unpartitioned
	// stars only).
	Core core.Config
	// Fault, when set, arms deterministic fault injection: each shard
	// pipeline gets Fault.ForShard(i, Obs), and admission faults (plane
	// level, since admission runs once per logical query) are armed when
	// the spec is not targeted at a single shard. Nil means every hook
	// compiles down to a no-op.
	Fault *fault.Spec
	// StallTimeout, when > 0, arms the supervisor's liveness check: a
	// shard whose page counter does not advance for this long while
	// queries are resident is declared failed (StallError) and
	// quarantined. 0 disables stall detection; pipeline failures are
	// still supervised.
	StallTimeout time.Duration
	// Logf, when set, receives supervision events (quarantines) and is
	// passed through to the shard pipelines for failure logging.
	Logf func(format string, args ...any)
	// Obs is the registry the whole group records into: per-shard
	// pipeline metrics (labeled by shard index), the shared dimension
	// plane's families, group supervision metrics (cjoin_shard_*), and
	// fault-injection counters. These are the group's only counts, so
	// Stats and /metrics agree by construction. Nil means a private
	// registry.
	Obs *obs.Registry
}

// DealPartitions assigns partitions to shards balanced by page count —
// LPT (longest-processing-time) greedy: partitions are considered in
// descending page order and each lands on the currently lightest shard,
// so one oversized partition cannot drag whole small ones onto its
// shard. Ties prefer the shard holding fewer partitions (then the lower
// index), which keeps every shard non-empty whenever len(pages) >=
// shards even if some partitions hold zero pages. The returned subsets
// are global partition indices, sorted ascending within each shard so
// the dealt scan preserves the star's partition order. Deterministic:
// the same inputs always produce the same deal, so every layer — group,
// stats, tests — can re-derive the topology.
//
// With fewer partitions than shards the trailing shards come back
// empty; Group rejects that topology (RangePartitionedError) because an
// empty shard has no scan to run.
func DealPartitions(pages []int, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pages[order[a]] > pages[order[b]] })
	subsets := make([][]int, shards)
	load := make([]int64, shards)
	for _, p := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] ||
				(load[s] == load[best] && len(subsets[s]) < len(subsets[best])) {
				best = s
			}
		}
		subsets[best] = append(subsets[best], p)
		load[best] += int64(pages[p])
	}
	for _, sub := range subsets {
		sort.Ints(sub)
	}
	return subsets
}

// Group is the executor: one logical CJOIN operator composed of N ≥ 1
// fact-partitioned pipelines. It implements core.Executor, and it is the
// only owner of a dimension plane.
type Group struct {
	star *catalog.Star
	// plane is the group-owned dimension plane: admission and removal
	// run once per logical query; every shard probes its snapshots.
	plane *dimplane.Plane
	pipes []*core.Pipeline
	// subsets is the partition deal behind each shard (global partition
	// indices, index-aligned with pipes); nil for a page-strided group.
	subsets [][]int

	// mu guards lifecycle transitions so Stats/ShardStats snapshots never
	// race Start or Stop — the same snapshot discipline the admission
	// queue applies to its counters — and the quarantine set.
	mu      sync.Mutex
	started bool
	stopped bool
	// failed[i] is non-nil once shard i has been quarantined (the
	// pipeline failure cause).
	failed  []error
	nFailed int

	superStop chan struct{}
	supWg     sync.WaitGroup
	stall     time.Duration
	logf      func(format string, args ...any)
	om        groupMetrics
}

// groupMetrics holds the group's supervision-tier telemetry handles.
type groupMetrics struct {
	quarantines     *obs.Counter
	degradedRejects *obs.Counter
	shardUp         []*obs.Gauge // index-aligned with pipes
}

func newGroupMetrics(r *obs.Registry, n int) groupMetrics {
	gm := groupMetrics{shardUp: make([]*obs.Gauge, n)}
	gm.quarantines = r.Counter("cjoin_shard_quarantines_total",
		"Shards quarantined by the supervisor (pipeline failure or scan stall).")
	gm.degradedRejects = r.Counter("cjoin_shard_degraded_rejects_total",
		"Submissions rejected in degraded mode: quarantined shards made the query infeasible, or no shard can serve.")
	up := r.GaugeVec("cjoin_shard_up",
		"Shard serving state: 1 healthy, 0 quarantined.", "shard")
	for i := 0; i < n; i++ {
		gm.shardUp[i] = up.With(strconv.Itoa(i))
		gm.shardUp[i].Set(1)
	}
	return gm
}

var _ core.Executor = (*Group)(nil)

// New builds a Group of cfg.Shards pipelines over the star schema. Call
// Start before Submit.
func New(star *catalog.Star, cfg Config) (*Group, error) {
	n := cfg.Shards
	if n <= 1 {
		n = 1
	}
	// A range-partitioned star shards by dealing whole partitions; that
	// needs at least one partition per shard.
	var subsets [][]int
	if star.PartCol >= 0 && n > 1 {
		if nparts := len(star.Partitions()); nparts < n {
			return nil, &RangePartitionedError{Shards: n, Partitions: nparts}
		}
		subsets = DealPartitions(star.PartitionPages(), n)
	}
	workers := cfg.Core.Workers
	if workers <= 0 {
		workers = runtime.NumCPU() / 2
	}
	perShard := workers / n
	if perShard < 1 {
		perShard = 1
	}
	var base core.PageSource = star.Fact.Heap
	if cfg.Core.FactSource != nil {
		base = cfg.Core.FactSource
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	// One dimension plane for the whole group, sized from the same
	// effective configuration every shard pipeline will normalize to.
	norm := cfg.Core.Normalized()
	plcfg := dimplane.Config{
		MaxConcurrent: norm.MaxConcurrent,
		Obs:           cfg.Obs,
		PredCacheSize: norm.PredCacheSize,
	}
	// Admission runs once per logical query on the group plane, so admit
	// faults arm there — but only for specs not targeted at one shard.
	if planeInj := cfg.Fault.ForShard(-1, cfg.Obs); planeInj != nil {
		plcfg.AdmitFault = planeInj.AdmitErr
	}
	plane := dimplane.New(star, plcfg)
	g := &Group{star: star, plane: plane, subsets: subsets,
		failed:    make([]error, n),
		superStop: make(chan struct{}),
		stall:     cfg.StallTimeout,
		logf:      cfg.Logf,
		om:        newGroupMetrics(cfg.Obs, n),
	}
	for i := 0; i < n; i++ {
		cc := cfg.Core
		cc.MaxConcurrent = norm.MaxConcurrent
		cc.Workers = perShard
		if cc.Logf == nil {
			cc.Logf = cfg.Logf
		}
		sc := core.ShardConfig{Index: i, Plane: plane, Fault: cfg.Fault.ForShard(i, cfg.Obs), Obs: cfg.Obs}
		if n > 1 {
			if subsets != nil {
				sc.PartSubset = subsets[i]
			} else {
				cc.FactSource = &stridedSource{src: base, offset: i, stride: n}
			}
		}
		p, err := core.NewPipeline(star, cc, sc)
		if err != nil {
			for _, built := range g.pipes {
				built.Stop()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.pipes = append(g.pipes, p)
	}
	return g, nil
}

// Plane returns the group-owned dimension plane (shared by every shard).
// Only tests read it: no executor caller reaches into the plane.
func (g *Group) Plane() *dimplane.Plane { return g.plane }

// NumShards returns the number of inner pipelines.
func (g *Group) NumShards() int { return len(g.pipes) }

// ShardPartitions returns the global partition indices dealt to each
// shard, index-aligned with the shard topology, or nil for a
// page-strided (unpartitioned) group. The returned slices are copies.
func (g *Group) ShardPartitions() [][]int {
	if g.subsets == nil {
		return nil
	}
	out := make([][]int, len(g.subsets))
	for i, sub := range g.subsets {
		out[i] = append([]int(nil), sub...)
	}
	return out
}

// Start launches every shard pipeline.
func (g *Group) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return
	}
	for _, p := range g.pipes {
		p.Start()
	}
	g.supervise()
	g.started = true
}

// Stop shuts every shard down in parallel. In-flight queries receive
// ErrPipelineStopped, and their handles retire their plane slots.
func (g *Group) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	// Retire the supervisor first so a clean shutdown is never mistaken
	// for a failure cascade.
	close(g.superStop)
	g.supWg.Wait()
	var wg sync.WaitGroup
	for _, p := range g.pipes {
		wg.Add(1)
		go func(p *core.Pipeline) { defer wg.Done(); p.Stop() }(p)
	}
	wg.Wait()
}

// MaxConcurrent returns the group's maxConc bound: the shared plane's
// slot count, which every logical query occupies exactly one of.
func (g *Group) MaxConcurrent() int { return g.pipes[0].MaxConcurrent() }

// ActiveQueries returns the number of queries currently registered
// (the maximum across shards: shards retire a finishing query at
// slightly different times).
func (g *Group) ActiveQueries() int {
	n := 0
	for _, p := range g.pipes {
		if a := p.ActiveQueries(); a > n {
			n = a
		}
	}
	return n
}

// Quiesce blocks until no queries are in flight on any shard.
func (g *Group) Quiesce() {
	for _, p := range g.pipes {
		p.Quiesce()
	}
}

// Submit registers the query (Algorithm 1: admitted once to the plane,
// activated on every shard) and returns the handle every shard reports
// its partial into.
func (g *Group) Submit(q *query.Bound) (core.Handle, error) {
	return g.SubmitCtx(context.Background(), q)
}

// SubmitCtx is Submit with a context governing admission: a context
// canceled before the query is installed aborts the admission (no store
// is touched, the slot is freed), and one canceled during the short
// installation stall cancels the freshly admitted query. Either way the
// error is ctx.Err().
func (g *Group) SubmitCtx(ctx context.Context, q *query.Bound) (core.Handle, error) {
	return g.submitOne(ctx, q, nil)
}

// SubmitWithSink registers q like Submit but routes its joined tuples to
// sink instead of an aggregation operator (§5, galaxy joins). Every shard
// feeds sink through one fan-in that serializes Consume calls; Finalize
// runs once, after the last shard reports, with the query's error. The
// handle's Wait still reports completion, with no rows on success.
func (g *Group) SubmitWithSink(q *query.Bound, sink core.TupleSink) (core.Handle, error) {
	if sink == nil {
		return nil, fmt.Errorf("shard: nil sink")
	}
	return g.submitOne(context.Background(), q, sink)
}

// submitOne is single-query admission: a batch of one.
func (g *Group) submitOne(ctx context.Context, q *query.Bound, sink core.TupleSink) (core.Handle, error) {
	handles, errs, err := g.submitBatch(ctx, []*query.Bound{q}, []core.TupleSink{sink})
	if err != nil {
		return nil, err
	}
	return handles[0], errs[0]
}

// activateAdmitted fans one plane-admitted query out to every healthy
// shard and returns its handle, into which every shard's run reports.
// The handle owns the slot's one plane hold; on error the slot has been
// released already (Retire, or the handle once the runs activated here
// have recycled) — the caller only reports.
func (g *Group) activateAdmitted(ctx context.Context, q *query.Bound, slot int, sink core.TupleSink, start time.Time) (*groupHandle, error) {
	// Degraded mode: accept only queries the survivors can answer
	// exactly. Infeasible ones retire the admission they just made and
	// fail fast with the typed, retryable shard error.
	g.mu.Lock()
	ok, dead := g.feasibleLocked(q, slot)
	var cause error
	if !ok {
		cause = g.failed[dead]
	}
	healthy := make([]int, 0, len(g.pipes))
	for i := range g.pipes {
		if g.failed[i] == nil {
			healthy = append(healthy, i)
		}
	}
	g.mu.Unlock()
	if !ok {
		g.plane.Retire(slot)
		g.om.degradedRejects.Inc()
		return nil, &ShardFailedError{Shard: dead, Cause: cause}
	}
	h := &groupHandle{
		plane:   g.plane,
		bound:   q,
		slot:    slot,
		sink:    sink,
		parts:   make([][]agg.Result, len(g.pipes)),
		pending: len(healthy),
		ready:   make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	h.unsettled.Store(int32(len(healthy)) + 1)
	if sink != nil {
		sink = &fanIn{TupleSink: sink}
	}

	// Shards aggregate partials, which the handle merges before it
	// applies ORDER BY and LIMIT once; the Bound is read-only during
	// execution and shared by every shard. The last shard activates on
	// this goroutine, so one shard starts no goroutine here.
	runs := make([]core.Run, len(healthy))
	errs := make([]error, len(healthy))
	var wg sync.WaitGroup
	last := len(healthy) - 1
	for j, i := range healthy[:last] {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			runs[j], errs[j] = g.pipes[i].Activate(ctx, q, slot, sink, h)
		}(j, i)
	}
	runs[last], errs[last] = g.pipes[healthy[last]].Activate(ctx, q, slot, sink, h)
	wg.Wait()
	if fi := firstErrorIdx(errs); fi >= 0 {
		// Partial activation: the activated shards recycle through the
		// normal cancel lifecycle, reporting into a handle nobody holds
		// (its sink is never finalized). A shard that failed to activate
		// never reports or recycles, so the handle takes both in its
		// stead; it retires the slot after the last recycle.
		h.mu.Lock()
		h.sink = nil
		h.mu.Unlock()
		for j, run := range runs {
			if errs[j] == nil {
				run.Cancel()
			} else {
				h.Report(healthy[j], nil, errs[j])
				h.Recycled()
			}
		}
		return nil, typeShardErr(healthy[fi], errs[fi])
	}
	h.submission = time.Since(start)
	h.mu.Lock()
	h.runs = runs
	// A shard that failed during activation decided the outcome before
	// the runs were known: cancel them now.
	decided := h.decided
	h.mu.Unlock()
	if decided {
		cancelAll(runs)
	}
	return h, nil
}

// SubmitBatch admits K queries in one shared-plane round — the
// dimension half of Algorithm 1 runs exactly once, on the group's plane
// — and fans only the per-shard Preprocessor installation (lines 17–22)
// out to the healthy shards. A whole-batch failure (slot exhaustion,
// scan error, all shards down) admits nothing and returns err;
// per-query activation failures land in errs. See core.Executor.
func (g *Group) SubmitBatch(ctx context.Context, qs []*query.Bound) ([]core.Handle, []error, error) {
	return g.submitBatch(ctx, qs, nil)
}

// submitBatch is the group's one admission body, at every shard count.
// sinks, when non-nil, is parallel to qs: a non-nil sinks[i] receives
// qs[i]'s joined tuples instead of an aggregation operator.
func (g *Group) submitBatch(ctx context.Context, qs []*query.Bound, sinks []core.TupleSink) ([]core.Handle, []error, error) {
	// Reject up front what no shard would activate, before the shared
	// plane spends dimension scans and snapshot publications on it.
	g.mu.Lock()
	stopped := g.stopped
	var allDown error
	if g.nFailed == len(g.pipes) {
		allDown = g.failed[g.firstFailedLocked()]
	}
	g.mu.Unlock()
	if stopped {
		return nil, nil, core.ErrPipelineStopped
	}
	for _, q := range qs {
		if q.Schema != g.star {
			return nil, nil, core.ErrSchemaMismatch
		}
	}
	if allDown != nil {
		g.om.degradedRejects.Inc()
		return nil, nil, &ShardFailedError{Shard: -1, Cause: allDown}
	}
	start := time.Now()

	slots, err := g.plane.AdmitBatch(ctx, qs)
	if err != nil {
		if errors.Is(err, dimplane.ErrSlotsExhausted) {
			return nil, nil, core.ErrTooManyQueries
		}
		return nil, nil, err
	}
	handles := make([]core.Handle, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		var sink core.TupleSink
		if sinks != nil {
			sink = sinks[i]
		}
		var h *groupHandle
		h, errs[i] = g.activateAdmitted(ctx, q, slots[i], sink, start)
		if errs[i] == nil {
			handles[i] = h
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		// Canceled during the installation stall after every shard
		// accepted: abort the admission cleanly — every shard recycles
		// through the cancel lifecycle, then the handle retires the slot.
		for i, h := range handles {
			if h != nil {
				h.Cancel()
				handles[i], errs[i] = nil, cerr
			}
		}
	}
	return handles, errs, nil
}

// firstErrorIdx returns the index of the first non-nil error, -1 if
// none.
func firstErrorIdx(errs []error) int {
	for i, err := range errs {
		if err != nil {
			return i
		}
	}
	return -1
}

// Stats returns group-wide counters: scan and filter activity summed
// across shards, with shard 0's filter order as representative. The
// dimension plane's figures are PlaneStats.
func (g *Group) Stats() core.Stats {
	merged, _ := g.StatsWithShards()
	return merged
}

// StatsWithShards returns the per-shard counters and their merge derived
// from one snapshot, so the breakdown always sums exactly to the totals
// — the consistency /stats promises its consumers.
func (g *Group) StatsWithShards() (core.Stats, []core.Stats) {
	per := g.ShardStats()
	out := core.Stats{CollectedAt: time.Now(), State: core.ShardHealthy}
	down := 0
	for i, s := range per {
		out.TuplesScanned += s.TuplesScanned
		out.TuplesEmitted += s.TuplesEmitted
		out.PagesRead += s.PagesRead
		out.ScanCycles += s.ScanCycles
		out.ScanRetries += s.ScanRetries
		out.PagesPrunedPartition += s.PagesPrunedPartition
		out.PagesPrunedZonemap += s.PagesPrunedZonemap
		out.PagesSkippedZonemap += s.PagesSkippedZonemap
		if s.State == core.ShardFailed {
			down++
		}
		if i == 0 {
			out.FilterOrder = s.FilterOrder
			out.Filters = append([]core.FilterStats(nil), s.Filters...)
			continue
		}
		for j := range s.Filters {
			if j >= len(out.Filters) {
				break
			}
			// Stored deliberately not summed: every shard probes the
			// same plane-owned store, so shard 0's reading already is
			// the whole table.
			out.Filters[j].TuplesIn += s.Filters[j].TuplesIn
			out.Filters[j].Probes += s.Filters[j].Probes
			out.Filters[j].Drops += s.Filters[j].Drops
		}
	}
	if down == len(per) {
		// The merged row mirrors Health: all shards down is a failed
		// group; anything less keeps serving (degraded state is the
		// per-shard breakdown's story).
		out.State = core.ShardFailed
	}
	return out, per
}

// PlaneStats snapshots the group's dimension plane. Admission runs once
// per logical query and every shard probes the same stores, so these
// figures belong to the group, not to any shard pipeline.
func (g *Group) PlaneStats() dimplane.Stats { return g.plane.Stats() }

// ShardStats snapshots every shard pipeline's counters, index-aligned
// with the shard topology. Safe to call concurrently with startup and
// drain.
func (g *Group) ShardStats() []core.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]core.Stats, len(g.pipes))
	for i, p := range g.pipes {
		out[i] = p.Stats()
	}
	return out
}

// groupHandle is the one core.Handle: every shard's run of one logical
// query reports into it (core.Reporter). It decides the query's outcome
// in one place — the first shard error, a Cancel, or the last shard's
// partial — and merges the partials, then applies the query's ORDER BY
// and LIMIT once, on the goroutine that calls Wait.
type groupHandle struct {
	plane      *dimplane.Plane
	bound      *query.Bound
	slot       int
	submission time.Duration
	// runs holds each activated shard's run; set under mu once activation
	// completes, read-only after.
	runs []core.Run

	mu      sync.Mutex
	sink    core.TupleSink // the caller's sink; finalized after the last report
	parts   [][]agg.Result // shard partials, indexed by shard; nil once merged
	pending int            // runs yet to report
	decided bool           // the outcome is final: err is set, or every partial is in
	err     error          // the outcome's error: first shard error or cancel

	// ready holds one token once the outcome is decided; Wait takes it,
	// so the result is delivered once.
	ready chan struct{}
	// unsettled counts the slot recyclings still to come plus one for
	// the last report. When it reaches zero every run has recycled and
	// the last Report (with the sink's Finalize) has returned: the slot's
	// one plane hold is retired, then Done closes.
	unsettled atomic.Int32
	done      chan struct{}
}

var (
	_ core.Handle   = (*groupHandle)(nil)
	_ core.Reporter = (*groupHandle)(nil)
)

// Report takes one shard's outcome (core.Reporter). The first error
// decides the query at once — as the serving tier's typed, retryable
// error when the shard failed — and cancels the sibling shards; the last
// partial decides a query nothing failed. The caller's sink is finalized
// after the last report, with the outcome's error.
func (h *groupHandle) Report(shard int, rows []agg.Result, err error) {
	h.mu.Lock()
	h.pending--
	decide := !h.decided && (err != nil || h.pending == 0)
	if !h.decided {
		if err != nil {
			h.err, h.parts = typeShardErr(shard, err), nil
		} else {
			h.parts[shard] = rows
		}
		h.decided = decide
	}
	last, sink, ferr, runs := h.pending == 0, h.sink, h.err, h.runs
	h.mu.Unlock()
	if decide {
		h.ready <- struct{}{}
		if err != nil {
			cancelAll(runs)
		}
	}
	if last {
		if sink != nil {
			sink.Finalize(ferr)
		}
		h.settle()
	}
}

// Recycled counts one shard's slot recycling (core.Reporter).
func (h *groupHandle) Recycled() { h.settle() }

// settle retires the slot and closes Done once the last recycle and the
// last report are in. A run's Distributor reports before it hands the
// run to cleanup, so the last settle is a recycle — Algorithm 2 cleanup
// on the last shard's manager goroutine, or a sweep — unless a failure
// sweep recycles a run whose Distributor is still inside Report.
func (h *groupHandle) settle() {
	if h.unsettled.Add(-1) == 0 {
		h.plane.Retire(h.slot)
		close(h.done)
	}
}

// cancelAll retires the query on every shard; a run that already
// reported is left alone.
func cancelAll(runs []core.Run) {
	for _, r := range runs {
		r.Cancel()
	}
}

// Slot returns the query's slot on the group's plane (every shard holds
// the same one).
func (h *groupHandle) Slot() int { return h.slot }

// Wait blocks until the outcome is decided and returns it: the error, or
// every shard's partial merged (agg.Merge), sorted and limited once. The
// handle keeps no rows once they are delivered: the server keeps
// finished handles for status lookups.
func (h *groupHandle) Wait() core.QueryResult {
	<-h.ready
	if h.err != nil {
		return core.QueryResult{Err: h.err}
	}
	rows := agg.Merge(h.bound.Aggs, h.parts...)
	h.parts = nil
	query.SortResults(rows, h.bound.OrderBy)
	return core.QueryResult{Rows: h.bound.ApplyLimit(rows)}
}

// Done returns a channel closed once every shard has recycled the
// query's slot and the plane has retired it.
func (h *groupHandle) Done() <-chan struct{} { return h.done }

// Cancel abandons the query on every shard; ErrQueryCanceled is
// delivered immediately.
func (h *groupHandle) Cancel() bool {
	h.mu.Lock()
	if h.decided {
		h.mu.Unlock()
		return false
	}
	h.decided, h.err, h.parts = true, core.ErrQueryCanceled, nil
	runs := h.runs
	h.mu.Unlock()
	h.ready <- struct{}{}
	cancelAll(runs)
	return true
}

// PagesScanned sums the fact pages charged to the query across shards.
func (h *groupHandle) PagesScanned() int64 {
	var n int64
	for _, r := range h.runs {
		n += r.PagesScanned()
	}
	return n
}

// Progress averages shard progress. Both deals balance shards by page
// count — striding keeps them within one page, partition dealing within
// one partition's pages — so the unweighted mean is a good estimate; a
// shard with nothing to scan for this query (every dealt partition
// pruned) reports 1 and only pulls the mean toward completion.
func (h *groupHandle) Progress() float64 {
	var sum float64
	for _, r := range h.runs {
		sum += r.Progress()
	}
	return sum / float64(len(h.runs))
}

// ETA is the slowest shard's estimate — the group completes when its
// last shard does. ok only once every shard has an estimate.
func (h *groupHandle) ETA() (time.Duration, bool) {
	h.mu.Lock()
	decided := h.decided
	h.mu.Unlock()
	if decided {
		return 0, true
	}
	var max time.Duration
	for _, r := range h.runs {
		eta, ok := r.ETA()
		if !ok {
			return 0, false
		}
		if eta > max {
			max = eta
		}
	}
	return max, true
}

// Submission is the broadcast registration latency: from SubmitCtx entry
// until the slowest shard's query-start control tuple was in its
// pipeline.
func (h *groupHandle) Submission() time.Duration { return h.submission }

// stridedSource exposes pages offset, offset+stride, offset+2*stride, …
// of an underlying source as one shard's continuous-scan input. Shard
// page j maps to base page offset + j*stride, a position that never
// changes as the base grows — appended tail pages join the owning
// shard's cycle at a fresh, stable position, exactly like a growing heap
// under a single pipeline.
type stridedSource struct {
	src            core.PageSource
	offset, stride int
}

var _ core.PageSource = (*stridedSource)(nil)

func (s *stridedSource) NumCols() int     { return s.src.NumCols() }
func (s *stridedSource) RowsPerPage() int { return s.src.RowsPerPage() }

func (s *stridedSource) NumPages() int {
	n := s.src.NumPages()
	if n <= s.offset {
		return 0
	}
	return (n - s.offset + s.stride - 1) / s.stride
}

func (s *stridedSource) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	return s.src.ReadPage(s.offset+page*s.stride, dst, scratch)
}

// AllPagesIntersect and ClearDisjoint forward the zone-map face of the
// base source under the same page mapping, so a shard's per-page pruning
// decisions are identical to the single pipeline's for the pages it owns
// — the page-level half of the pruning-parity invariant. The base's
// "every page intersects" covers a superset of this shard's pages, so it
// holds for them too; a run over shard pages first, first+stride, … is
// the base's run over offset+first*s.stride with the strides multiplied.
// A base source without zone maps prunes nothing: every page intersects,
// no page is cleared.
func (s *stridedSource) AllPagesIntersect(col int, lo, hi int64) bool {
	if b, isB := s.src.(core.BoundsSource); isB {
		return b.AllPagesIntersect(col, lo, hi)
	}
	return true
}

func (s *stridedSource) ClearDisjoint(col, first, stride int, lo, hi int64, keep []bool) int {
	if b, isB := s.src.(core.BoundsSource); isB {
		return b.ClearDisjoint(col, s.offset+first*s.stride, stride*s.stride, lo, hi, keep)
	}
	return 0
}

var _ core.BoundsSource = (*stridedSource)(nil)
