package dimplane

import (
	"sync"

	"cjoin/internal/storage"
)

// DefaultPredCacheSize bounds the predicate-scan cache when
// Config.PredCacheSize is zero. A dashboard fleet reuses a handful of
// predicate templates per dimension; 128 distinct (dimension,
// fingerprint) pairs is generous for that shape while bounding worst-
// case retention to 128 row sets.
const DefaultPredCacheSize = 128

// predCache memoizes dimension predicate-scan results across
// admissions, keyed by (dimension, canonical predicate fingerprint).
// The cached value is the exact selection SelectRows would have
// returned: the selected heap rows in one arena, immutable once filled,
// so hits can be shared by any number of concurrent admissions and by
// the stores themselves.
//
// Correctness: a hit is only valid if the dimension heap is unchanged
// since the fill began. An entry records the heap's mutation counter
// (storage.HeapFile.Version), read *before* its scan, and hits only while
// the counter still reads that value: any append or in-place rewrite of
// that dimension — including one that lands while the scan is in flight —
// makes exactly that dimension's entries stale, with no writer having to
// know the cache exists. An epoch, also read before the scan, covers the
// one plane-level event that drops everything: InvalidateCache when the
// executor quarantines a pipeline. Retire GC touches only the *store* (bit clearing, entry
// GC), never the dimension heap the scan reads, so slot churn does not
// invalidate.
type predCache struct {
	mu      sync.Mutex
	cap     int
	epoch   uint64
	entries map[cacheKey]*cacheEntry
	fifo    []cacheKey // insertion order, for bounded eviction
}

type cacheKey struct {
	dim int
	fp  uint64
}

type cacheEntry struct {
	rows Rows
	at   fillStamp
}

// fillStamp is what a fill is valid against: the cache epoch and the
// dimension heap's version, both read before the scan.
type fillStamp struct{ epoch, version uint64 }

func newPredCache(capacity int) *predCache {
	if capacity == 0 {
		capacity = DefaultPredCacheSize
	}
	if capacity < 0 {
		return nil // disabled; nil receiver no-ops below
	}
	return &predCache{cap: capacity, entries: make(map[cacheKey]*cacheEntry)}
}

// lookup returns the memoized scan result for (dim, fp) if it is still
// current. On a miss it returns the stamp the caller's fill must carry;
// it is read here, before the caller scans heap.
func (c *predCache) lookup(dim int, fp uint64, heap *storage.HeapFile) (Rows, fillStamp, bool) {
	if c == nil {
		return Rows{}, fillStamp{}, false
	}
	ver := heap.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := fillStamp{epoch: c.epoch, version: ver}
	k := cacheKey{dim, fp}
	e, ok := c.entries[k]
	if !ok || e.at != now {
		if ok {
			// Stale: drop it now so the map doesn't accumulate dead
			// generations.
			c.deleteLocked(k)
		}
		return Rows{}, now, false
	}
	return e.rows, now, true
}

// store memoizes a scan result under the stamp lookup returned before
// the scan. The caller must not mutate rows after handing them over.
func (c *predCache) store(dim int, fp uint64, rows Rows, at fillStamp) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{dim, fp}
	if _, ok := c.entries[k]; !ok {
		for len(c.fifo) >= c.cap {
			c.deleteLocked(c.fifo[0])
		}
		c.fifo = append(c.fifo, k)
	}
	c.entries[k] = &cacheEntry{rows: rows, at: at}
}

func (c *predCache) deleteLocked(k cacheKey) {
	delete(c.entries, k)
	for i, fk := range c.fifo {
		if fk == k {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
}

// invalidateAll bumps the epoch: every cached entry becomes stale at
// its next lookup. O(1); stale entries are reaped lazily.
func (c *predCache) invalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.epoch++
	c.mu.Unlock()
}

// len returns the number of resident entries (tests).
func (c *predCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
