// Package dimplane implements the shared dimension plane: the write side
// of the CJOIN Filter state, factored out of the per-pipeline operator so
// that N fact-partitioned pipelines (internal/shard) share one copy.
//
// CJOIN's premise is that concurrent queries share one in-flight state —
// one dimension hash table per dimension, one query bit per slot. The
// sharded execution tier broke half of that promise: broadcasting a
// query to N shards re-ran dimension admission (Algorithm 1's dimension
// half) N times, building N identical copy-on-write tables and
// multiplying the paper's admission-cost term by shard count. The plane
// restores admit-once semantics: slot allocation, predicate evaluation,
// table installation, and removal (Algorithm 2's dimension half) happen
// exactly once per logical query, and every pipeline's Filter stages
// probe the same immutable dimht snapshots lock-free. This is the same
// separation of update plane and scan plane that HTAP designs argue for,
// applied inside one operator: one writer, N concurrent readers, with
// atomic snapshot publication as the only coupling.
//
// Lifecycle: AdmitBatch allocates query slots and installs the queries'
// dimension selections. Each admitted slot has exactly one hold, owned by
// the logical query: its executor calls Retire(slot) once, after every
// pipeline has drained the query (Algorithm 2 cleanup), and Retire
// clears the bit, garbage-collects the entries and recycles the slot.
// Until then the slot cannot be reused, so no pipeline ever probes a bit
// that has been reassigned while its tuples are still in flight.
package dimplane

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/expr"
	"cjoin/internal/obs"
	"cjoin/internal/query"
)

// ErrSlotsExhausted is returned by AdmitBatch when all maxConc query
// slots are in use. The execution tier maps it to core.ErrTooManyQueries.
var ErrSlotsExhausted = errors.New("dimplane: all query slots in use")

// Config tunes a Plane.
type Config struct {
	// MaxConcurrent is the paper's maxConc: the bound on simultaneously
	// admitted queries and the width of every bit-vector. Default 64.
	MaxConcurrent int
	// AdmitFault, when non-nil, is consulted once per query at the top of
	// every admission round; a non-nil return fails the round with that
	// error (its slots are freed, no store is touched). Fault-injection
	// hook (internal/fault); nil in production.
	AdmitFault func() error
	// Obs is the registry the plane's metric families (cjoin_dimplane_*)
	// join; their counters are the plane's only counts, which Stats
	// reads. Nil means a private registry.
	Obs *obs.Registry
	// PredCacheSize bounds the predicate-scan cache: the number of
	// (dimension, predicate-fingerprint) scan results memoized across
	// admissions. 0 selects DefaultPredCacheSize; negative disables
	// caching (every admission re-scans, the pre-PR-8 behavior).
	PredCacheSize int
}

// Plane owns the dimension state shared by every pipeline of one logical
// executor. Admission and removal serialize per dimension inside each
// CowStore (so independent admissions of different queries proceed in
// parallel, keeping submission time flat as concurrency grows, §6.2.2);
// probers never block.
type Plane struct {
	star   *catalog.Star
	cfg    Config
	ids    *bitvec.Allocator
	stores []*CowStore
	// refs records each admitted slot's q.DimRefs, consumed by Retire to
	// drop each referenced dimension's reference count. AdmitBatch writes
	// a slot's row before it returns the slot, and only that slot's owner
	// calls Retire, so the row needs no synchronization of its own.
	refs  [][]bool
	cache *predCache // nil when PredCacheSize < 0

	peakBytes atomic.Int64

	om planeMetrics
}

// planeMetrics is the plane's slice of the telemetry plane and its only
// counts: Stats reads these handles.
type planeMetrics struct {
	admit       *obs.Histogram // one observation per round; its raw sum is Stats.AdmitNanos
	predScan    *obs.Histogram
	batchSize   *obs.Histogram // one observation per round; its count is Stats.BatchAdmits
	admits      *obs.Counter
	retires     *obs.Counter
	cacheHits   *obs.Counter // predicate scans skipped (shared cache or batch-local reuse)
	cacheMisses *obs.Counter // cache-enabled resolutions that scanned the heap
	// publishes counts store version transitions: each CowStore write
	// (AdmitBatch, Remove) publishes exactly one COW snapshot, so the
	// one-publication-per-store-per-round claim is directly observable.
	publishes   *obs.Counter
	pagesRead   *obs.Counter
	pagesPruned *obs.Counter
}

func newPlaneMetrics(r *obs.Registry, pl *Plane) planeMetrics {
	r.GaugeFunc("cjoin_dimplane_slots_in_use",
		"Currently admitted query slots (bit-vector bits held).",
		func() float64 { return float64(pl.ids.InUse()) })
	r.GaugeFunc("cjoin_dimplane_store_bytes",
		"Resident bytes of all dimension stores' current versions.",
		func() float64 { return float64(pl.MemBytes()) })
	scanPages := r.CounterVec("cjoin_dimplane_scan_pages_total",
		"Dimension heap pages a predicate scan read, or skipped because the page's zone map is disjoint from the predicate's ranges, by outcome (read|pruned).", "outcome")
	return planeMetrics{
		admit: r.DurationHistogram("cjoin_dimplane_admit_seconds",
			"Wall time of the dimension half of admission (Algorithm 1), once per logical query."),
		predScan: r.DurationHistogram("cjoin_dimplane_predicate_scan_seconds",
			"Wall time evaluating one dimension predicate against its heap."),
		batchSize: r.Histogram("cjoin_dimplane_admit_batch_size",
			"Queries admitted per plane round, a lone query observing 1 (one COW publication per store per round).",
			obs.ExpBuckets(1, 2, 9), 1),
		admits:  r.Counter("cjoin_dimplane_admits_total", "Successful admissions."),
		retires: r.Counter("cjoin_dimplane_retires_total", "Slot releases (Algorithm 2 runs), one per admitted query."),
		cacheHits: r.Counter("cjoin_dimplane_cache_hits_total",
			"Dimension predicate scans skipped because a memoized result was reused."),
		cacheMisses: r.Counter("cjoin_dimplane_cache_misses_total",
			"Cache-enabled predicate resolutions that had to scan the dimension heap."),
		publishes: r.Counter("cjoin_dimplane_snapshot_publish_total",
			"Dimension store version transitions (COW snapshot publications)."),
		pagesRead:   scanPages.With("read"),
		pagesPruned: scanPages.With("pruned"),
	}
}

// New builds a plane over the star schema shared by the executor's
// pipelines.
func New(star *catalog.Star, cfg Config) *Plane {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	words := bitvec.Words(cfg.MaxConcurrent)
	pl := &Plane{
		star: star,
		cfg:  cfg,
		ids:  bitvec.NewAllocator(cfg.MaxConcurrent),
		refs: make([][]bool, cfg.MaxConcurrent),
	}
	for i := range star.Dims {
		pl.stores = append(pl.stores, NewCowStore(words, star.Dims[i].Heap.NumCols()))
	}
	for i := range pl.refs {
		pl.refs[i] = make([]bool, len(star.Dims))
	}
	pl.cache = newPredCache(cfg.PredCacheSize)
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	pl.om = newPlaneMetrics(cfg.Obs, pl)
	return pl
}

// Star returns the schema the plane was built over.
func (pl *Plane) Star() *catalog.Star { return pl.star }

// MaxConcurrent returns the plane's slot bound (bit-vector width).
func (pl *Plane) MaxConcurrent() int { return pl.cfg.MaxConcurrent }

// InvalidateCache drops every memoized predicate scan. The executor
// calls it when it quarantines a pipeline: a quarantine may reflect I/O
// trouble on the shared heaps, so every cached scan is suspect, not only
// those of the dimension the failed pipeline touched.
func (pl *Plane) InvalidateCache() { pl.cache.invalidateAll() }

// NumDims returns the number of dimension stores.
func (pl *Plane) NumDims() int { return len(pl.stores) }

// Store returns dimension i's shared store (probe side for Filters).
func (pl *Plane) Store(i int) *CowStore { return pl.stores[i] }

// InUse returns the number of currently admitted query slots.
func (pl *Plane) InUse() int { return pl.ids.InUse() }

// selectRowsCached resolves one dimension predicate (fp is its canonical
// fingerprint), consulting the predicate-scan cache first. A miss (or a
// disabled cache) scans the heap and memoizes the result.
func (pl *Plane) selectRowsCached(dim int, fp uint64, pred expr.Node) (Rows, error) {
	heap := pl.star.Dims[dim].Heap
	rows, at, ok := pl.cache.lookup(dim, fp, heap)
	if ok {
		pl.om.cacheHits.Inc()
		return rows, nil
	}
	scanStart := time.Now()
	rows, pc, err := selectRows(heap, pred)
	pl.om.predScan.ObserveSince(scanStart)
	pl.om.pagesRead.Add(int64(pc.read))
	pl.om.pagesPruned.Add(int64(pc.pruned))
	if err != nil {
		return Rows{}, err
	}
	if pl.cache != nil {
		pl.om.cacheMisses.Inc()
		pl.cache.store(dim, fp, rows, at)
	}
	return rows, nil
}

// AdmitBatch is the plane's one admission body: it runs the dimension
// half of Algorithm 1 for K queries in one plane round — allocate a slot
// per query, evaluate each referenced dimension's predicate, install the
// selected rows tagged with the slot's bit, and mark the slot
// active-but-non-referencing in every other dimension. Compared with K
// rounds of one it saves twice: each distinct dimension predicate (by
// canonical fingerprint) is evaluated once for the whole batch — and not
// at all on a cache hit — and each dimension store publishes ONE
// copy-on-write snapshot carrying all K bit-tags instead of K.
//
// The batch is all-or-nothing: any failure (slot exhaustion, fault
// injection, context cancellation, scan error) occurs before any store
// is touched, so the rollback is simply freeing the allocated slots and
// the error return means "nothing was admitted". Callers that want
// partial progress fall back to batches of one.
//
// Invariant on entry (established by Retire): every free slot's bit is
// clear in every store's b_Dj and every stored entry.
//
// The returned slice maps qs[i] to its slot; each slot is one hold,
// released by exactly one Retire.
func (pl *Plane) AdmitBatch(ctx context.Context, qs []*query.Bound) ([]int, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	start := time.Now()
	slots := make([]int, len(qs))
	for i := range qs {
		s, ok := pl.ids.Alloc()
		if !ok {
			for j := 0; j < i; j++ {
				pl.ids.Free(slots[j])
			}
			return nil, ErrSlotsExhausted
		}
		slots[i] = s
	}
	fail := func(err error) ([]int, error) {
		for _, s := range slots {
			pl.ids.Free(s)
		}
		return nil, err
	}
	if pl.cfg.AdmitFault != nil {
		// One consultation per query keeps injected fault rates
		// independent of how queries are grouped into rounds.
		for range qs {
			if err := pl.cfg.AdmitFault(); err != nil {
				return fail(err)
			}
		}
	}

	// Phase 1 — resolve: evaluate each distinct (dimension, predicate)
	// once, building the per-store install lists. Purely in-memory and
	// fallible; no shared state has been touched if we bail here.
	installs := make([][]Install, len(pl.stores))
	for i := range pl.stores {
		// Batch-local memo: even with the shared cache disabled, K
		// queries reusing one template scan once per batch.
		local := make(map[uint64]Rows)
		for k, q := range qs {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if !q.DimRefs[i] {
				installs[i] = append(installs[i], Install{Slot: slots[k]})
				continue
			}
			fp := query.Fingerprint(q.DimPreds[i])
			rows, ok := local[fp]
			if ok {
				pl.om.cacheHits.Inc()
			} else {
				var err error
				rows, err = pl.selectRowsCached(i, fp, q.DimPreds[i])
				if err != nil {
					return fail(err)
				}
				local[fp] = rows
			}
			installs[i] = append(installs[i], Install{
				Slot: slots[k], Ref: true, KeyCol: pl.star.KeyCol[i], Rows: rows,
			})
		}
	}

	// Phase 2 — install: one store write (one snapshot publication) per
	// dimension for the whole batch. Store writes are infallible, so
	// past this point the batch cannot partially fail.
	for k, q := range qs {
		copy(pl.refs[slots[k]], q.DimRefs)
	}
	for i, st := range pl.stores {
		st.AdmitBatch(installs[i])
	}
	pl.om.publishes.Add(int64(len(pl.stores)))

	n := int64(len(qs))
	pl.om.admit.ObserveSince(start)
	pl.om.admits.Add(n)
	pl.om.batchSize.Observe(n)
	pl.notePeak()
	return slots, nil
}

// Retire releases an admitted slot's one hold and runs Algorithm 2's
// dimension half: clear the query's bit everywhere, garbage-collect
// entries selected by no remaining referencing query, and recycle the
// slot. The executor calls it once per admitted query, after every
// pipeline has drained the query or when it rejects the query before any
// pipeline saw it. Retiring a slot that is not admitted panics: two
// owners of one release could corrupt a reused slot.
func (pl *Plane) Retire(slot int) {
	if !pl.ids.Allocated(slot) {
		panic(fmt.Sprintf("dimplane: retired slot %d, which is not admitted", slot))
	}
	for i, st := range pl.stores {
		st.Remove(slot, pl.refs[slot][i])
	}
	pl.om.publishes.Add(int64(len(pl.stores)))
	pl.ids.Free(slot)
	pl.om.retires.Inc()
}

// SelectedKeyRange returns the min and max key stored in dimension dim
// carrying the query's bit — used for partition pruning (§5). any is
// false when the query selects no stored tuple.
func (pl *Plane) SelectedKeyRange(dim, slot int) (minKey, maxKey int64, any bool) {
	pl.stores[dim].ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if !bv.Get(slot) {
			return true
		}
		if !any || key < minKey {
			minKey = key
		}
		if !any || key > maxKey {
			maxKey = key
		}
		any = true
		return true
	})
	return
}

// MemBytes sums the resident bytes of every dimension store's current
// version. The figure is per plane — shared by every pipeline — which is
// exactly why it stays ~constant in shard count.
func (pl *Plane) MemBytes() int64 {
	var b int64
	for _, st := range pl.stores {
		b += st.MemBytes()
	}
	return b
}

// notePeak folds the current resident size into the high-water mark.
func (pl *Plane) notePeak() {
	cur := pl.MemBytes()
	for {
		peak := pl.peakBytes.Load()
		if cur <= peak || pl.peakBytes.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of the plane's counters.
type Stats struct {
	// Admits counts admitted queries (one per logical query).
	Admits int64
	// AdmitNanos is the total wall time spent in admission — the paper's
	// "admission cost" term, now paid once per query instead of once per
	// shard.
	AdmitNanos int64
	// MemBytes is the current resident size of all dimension stores.
	MemBytes int64
	// PeakMemBytes is the high-water mark of MemBytes, sampled at each
	// admission.
	PeakMemBytes int64
	// InUse is the number of currently admitted slots.
	InUse int
	// CacheHits / CacheMisses count predicate resolutions served from
	// the scan cache vs resolved by scanning the dimension heap
	// (batch-local template reuse counts as a hit: the scan was
	// skipped). With the cache disabled CacheMisses stays zero and
	// CacheHits counts only batch-local reuse.
	CacheHits   int64
	CacheMisses int64
	// SnapshotPublishes counts dimension store version transitions —
	// one COW snapshot publication per CowStore write. The batch path's
	// saving shows up here directly: K queries cost NumDims
	// publications instead of K*NumDims.
	SnapshotPublishes int64
	// BatchAdmits counts admission rounds — every successful AdmitBatch,
	// a lone Admit being a round of one. BatchQueries is the queries
	// those rounds admitted, which is Admits by construction (kept as a
	// field for /stats consumers); their ratio is the mean batch size.
	BatchAdmits  int64
	BatchQueries int64
}

// Stats snapshots the plane counters: the same handles the plane's
// /metrics series read.
func (pl *Plane) Stats() Stats {
	admits := pl.om.admits.Value()
	return Stats{
		Admits:            admits,
		AdmitNanos:        pl.om.admit.RawSum(),
		MemBytes:          pl.MemBytes(),
		PeakMemBytes:      pl.peakBytes.Load(),
		InUse:             pl.ids.InUse(),
		CacheHits:         pl.om.cacheHits.Value(),
		CacheMisses:       pl.om.cacheMisses.Value(),
		SnapshotPublishes: pl.om.publishes.Value(),
		BatchAdmits:       pl.om.batchSize.Count(),
		BatchQueries:      admits,
	}
}
