package storage

// Zone maps (small materialized aggregates): every heap keeps a per-page,
// per-column min/max synopsis for every page it has, the in-memory tail
// page included. The synopsis is stored column-major — per column one
// flat []int64 of (min, max) pairs, one pair per page — so a scan can
// test a page against a predicate range without touching the device, and
// testing one column's range over every page reads 16 bytes per page
// sequentially instead of striding across the other columns' bounds.
// Bounds are folded from the appended values under the heap lock, so
// they are exact; the tail's pair widens with each append and stays in
// place when the page flushes. UpdateCol only ever widens bounds, so a
// stale synopsis is conservative (less pruning), never unsound.
//
// Beside the per-page synopsis the heap keeps, per column, the two scalars
// that decide "every flushed page intersects [lo,hi]" without looking at
// any page: the smallest page max and the largest page min. They are
// folded at flush — the tail's own pair is tested beside them — and
// deliberately NOT refreshed when UpdateCol widens a flushed page:
// widening can only raise the true min-of-max and lower the true
// max-of-min, so the stale scalars make AllPagesIntersect answer false
// more often — the caller then takes the exact per-page pass — never true
// wrongly.

// PageColBounds returns the min/max of column col over the given page.
// ok is false for pages that do not exist and for out-of-range columns —
// callers must then assume the page can contain any value. The scan
// tests synopses in bulk (ClearDisjoint); this one-cell accessor is the
// oracle the bulk readers are tested against, TestBulkBoundsUnderWriter
// included.
func (h *HeapFile) PageColBounds(page, col int) (min, max int64, ok bool) {
	if col < 0 || col >= h.ncols {
		return 0, 0, false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	b := h.colBounds[col]
	if page < 0 || 2*page >= len(b) {
		return 0, 0, false
	}
	return b[2*page], b[2*page+1], true
}

// AllPagesIntersect reports whether the synopsis of column col on every
// page intersects the closed interval [lo,hi] — i.e. whether that range
// can prune no page. It reads two scalars and the tail's pair under the
// lock, so rejecting a non-pruning range costs O(1) however large the
// heap. A false answer is not proof that some page is disjoint (the
// scalars go stale under UpdateCol widening); an out-of-range column
// answers true, matching PageColBounds' "assume any value".
func (h *HeapFile) AllPagesIntersect(col int, lo, hi int64) bool {
	if col < 0 || col >= h.ncols {
		return true
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	minOfMax, maxOfMin := h.minOfMax[col], h.maxOfMin[col]
	if h.tailRows > 0 {
		b := h.colBounds[col]
		minOfMax, maxOfMin = min(minOfMax, b[len(b)-1]), max(maxOfMin, b[len(b)-2])
	}
	return minOfMax >= lo && maxOfMin <= hi
}

// ClearDisjoint tests the pages first, first+stride, first+2*stride, …
// against the closed interval [lo,hi] on column col, page first+i*stride
// answering in keep[i]: every keep[i] still true whose page's synopsis is
// disjoint from the interval is cleared. It takes the heap lock once for
// the whole run and returns how many bits it cleared. The run ends at the
// end of keep or at the heap's last page; an out-of-range column clears
// nothing.
func (h *HeapFile) ClearDisjoint(col, first, stride int, lo, hi int64, keep []bool) int {
	if col < 0 || col >= h.ncols || first < 0 || stride < 1 {
		return 0
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	b := h.colBounds[col]
	cleared := 0
	for i, j := 0, 2*first; i < len(keep) && j < len(b); i, j = i+1, j+2*stride {
		if keep[i] && (b[j+1] < lo || b[j] > hi) {
			keep[i] = false
			cleared++
		}
	}
	return cleared
}

// BoundsVersion returns a counter that advances whenever the published
// synopsis changes: a page gets its first row, an append widens the tail,
// or UpdateCol widens a page's bounds. Two equal readings bracket an
// interval in which every bounds accessor saw the same synopsis;
// TestBulkBoundsUnderWriter uses that bracket to check bulk reads against
// PageColBounds under a concurrent writer.
func (h *HeapFile) BoundsVersion() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.boundsVer
}

// boundsAppendLocked folds one appended row into the tail's synopsis,
// opening the tail's pair on its first row. Called with h.mu held, before
// tailRows is incremented.
func (h *HeapFile) boundsAppendLocked(row []int64) {
	if h.tailRows == 0 {
		for c, v := range row {
			h.colBounds[c] = append(h.colBounds[c], v, v)
		}
		h.boundsVer++
		return
	}
	for c, v := range row {
		h.boundsWidenLocked(len(h.pageOffs), c, v)
	}
}

// boundsFlushLocked folds the flushing tail's pair into the per-column
// scalars; the pair itself already sits in colBounds.
func (h *HeapFile) boundsFlushLocked() {
	tail := 2 * len(h.pageOffs)
	for c := 0; c < h.ncols; c++ {
		b := h.colBounds[c][tail:]
		h.minOfMax[c] = min(h.minOfMax[c], b[1])
		h.maxOfMin[c] = max(h.maxOfMin[c], b[0])
	}
}

// boundsWidenLocked widens the synopsis covering (page, col) to admit v.
// In-place updates never recompute exact bounds — widening keeps the
// synopsis sound at the cost of pruning precision.
func (h *HeapFile) boundsWidenLocked(page, col int, v int64) {
	b := h.colBounds[col][2*page:]
	if v < b[0] {
		b[0] = v
		h.boundsVer++
	}
	if v > b[1] {
		b[1] = v
		h.boundsVer++
	}
}
