package storage

import "fmt"

// Zone maps (small materialized aggregates): every heap keeps a per-page,
// per-column min/max synopsis, computed incrementally as rows are appended
// and frozen when the page flushes. The synopsis is stored column-major —
// per column one flat []int64 of (min, max) pairs, one pair per flushed
// page — so a scan can test a page against a predicate range without
// touching the device, and testing one column's range over every page
// reads 16 bytes per page sequentially instead of striding across the
// other columns' bounds. Bounds are computed on the pre-encoded values, so
// they are exact for every codec.
//
// The in-memory tail page is still mutable, so it deliberately has no
// published bounds: PageColBounds answers ok=false for it and readers must
// treat it as matching everything. UpdateCol only ever widens bounds, so a
// stale synopsis is conservative (less pruning), never unsound.
//
// Beside the per-page synopsis the heap keeps, per column, the two scalars
// that decide "every flushed page intersects [lo,hi]" without looking at
// any page: the smallest page max and the largest page min. They are
// folded at flush and deliberately NOT refreshed when UpdateCol widens a
// page: widening can only raise the true min-of-max and lower the true
// max-of-min, so the stale scalars make AllPagesIntersect answer false
// more often — the caller then takes the exact per-page pass — never true
// wrongly.

// PageBounds is the synopsis of one column over one flushed page.
type PageBounds struct {
	Min, Max int64
}

// PageColBounds returns the min/max of column col over the given flushed
// page. ok is false for the tail page, for pages that do not exist, and
// for out-of-range columns — callers must then assume the page can
// contain any value.
func (h *HeapFile) PageColBounds(page, col int) (min, max int64, ok bool) {
	if col < 0 || col >= h.ncols {
		return 0, 0, false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if page < 0 || page >= len(h.pageOffs) {
		return 0, 0, false
	}
	b := h.colBounds[col]
	return b[2*page], b[2*page+1], true
}

// AllPagesIntersect reports whether the synopsis of column col on every
// flushed page intersects the closed interval [lo,hi] — i.e. whether that
// range can prune no flushed page. It reads two scalars under the lock,
// so rejecting a non-pruning range costs O(1) however large the heap. A
// false answer is not proof that some page is disjoint (the scalars go
// stale under UpdateCol widening); an out-of-range column answers true,
// matching PageColBounds' "assume any value".
func (h *HeapFile) AllPagesIntersect(col int, lo, hi int64) bool {
	if col < 0 || col >= h.ncols {
		return true
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.minOfMax[col] >= lo && h.maxOfMin[col] <= hi
}

// ColBoundsRun copies the synopsis of column col for flushed pages first,
// first+stride, first+2*stride, … into dst as (min, max) pairs — page
// first+i*stride at dst[2i], dst[2i+1] — taking the heap lock once for
// the whole run. It returns the number of pages filled: the run stops at
// the end of dst or at the first page without frozen bounds (the tail
// onward), and an out-of-range column fills none. Pages past the returned
// count must be treated as matching everything.
func (h *HeapFile) ColBoundsRun(col, first, stride int, dst []int64) int {
	if col < 0 || col >= h.ncols || first < 0 || stride < 1 {
		return 0
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	flushed := len(h.pageOffs)
	if first >= flushed {
		return 0
	}
	n := (flushed - first + stride - 1) / stride
	if n > len(dst)/2 {
		n = len(dst) / 2
	}
	src := h.colBounds[col][2*first:]
	if stride == 1 {
		copy(dst, src[:2*n])
		return n
	}
	for i, j := 0, 0; i < n; i, j = i+1, j+2*stride {
		dst[2*i], dst[2*i+1] = src[j], src[j+1]
	}
	return n
}

// BoundsVersion returns a counter that advances whenever the published
// synopsis changes: a page flushes or UpdateCol widens a flushed page's
// bounds. Two equal readings bracket an interval in which every bounds
// accessor saw the same synopsis.
func (h *HeapFile) BoundsVersion() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.boundsVer
}

// ColBounds returns a copy of the synopsis for column col over all
// flushed pages, in page order. The tail page is excluded.
func (h *HeapFile) ColBounds(col int) ([]PageBounds, error) {
	if col < 0 || col >= h.ncols {
		return nil, fmt.Errorf("storage: ColBounds column %d out of range", col)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]PageBounds, len(h.pageOffs))
	b := h.colBounds[col]
	for p := range out {
		out[p] = PageBounds{Min: b[2*p], Max: b[2*p+1]}
	}
	return out, nil
}

// boundsAppendLocked folds one appended row into the tail synopsis.
// Called with h.mu held, before tailRows is incremented.
func (h *HeapFile) boundsAppendLocked(row []int64) {
	if h.tailRows == 0 {
		copy(h.tailMin, row)
		copy(h.tailMax, row)
		return
	}
	for c, v := range row {
		if v < h.tailMin[c] {
			h.tailMin[c] = v
		}
		if v > h.tailMax[c] {
			h.tailMax[c] = v
		}
	}
}

// boundsFlushLocked freezes the tail synopsis as the flushed page's bounds.
func (h *HeapFile) boundsFlushLocked() {
	for c := 0; c < h.ncols; c++ {
		h.colBounds[c] = append(h.colBounds[c], h.tailMin[c], h.tailMax[c])
		if h.tailMax[c] < h.minOfMax[c] {
			h.minOfMax[c] = h.tailMax[c]
		}
		if h.tailMin[c] > h.maxOfMin[c] {
			h.maxOfMin[c] = h.tailMin[c]
		}
	}
	h.boundsVer++
}

// boundsWidenLocked widens the synopsis covering (page, col) to admit v.
// In-place updates never recompute exact bounds — widening keeps the
// synopsis sound at the cost of pruning precision.
func (h *HeapFile) boundsWidenLocked(page, col int, v int64) {
	if page < len(h.pageOffs) {
		b := h.colBounds[col][2*page:]
		if v < b[0] {
			b[0] = v
			h.boundsVer++
		}
		if v > b[1] {
			b[1] = v
			h.boundsVer++
		}
		return
	}
	if h.tailRows > 0 {
		if v < h.tailMin[col] {
			h.tailMin[col] = v
		}
		if v > h.tailMax[col] {
			h.tailMax[col] = v
		}
	}
}
