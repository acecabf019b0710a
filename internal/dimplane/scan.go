package dimplane

import (
	"sync"

	"cjoin/internal/catalog"
	"cjoin/internal/expr"
	"cjoin/internal/storage"
)

// Rows is a predicate scan's selection: the selected dimension rows, in
// heap order, packed row-major into one arena. It is immutable once
// returned, so the predicate cache and every store install of a batch
// share it.
type Rows struct {
	vals  []int64
	ncols int
}

// Len returns the number of selected rows.
func (r Rows) Len() int {
	if r.ncols == 0 {
		return 0
	}
	return len(r.vals) / r.ncols
}

// Row returns selected row i; the slice aliases the arena and must not
// be modified.
func (r Rows) Row(i int) []int64 {
	return r.vals[i*r.ncols : (i+1)*r.ncols : (i+1)*r.ncols]
}

// scanState is one predicate scan's working memory: the decoded page,
// the device scratch, the page verdicts, the selection under
// construction and the evaluation row. It is pooled, so a scan's only
// allocation is its result arena.
type scanState struct {
	vals    []int64
	scratch []byte
	keep    []bool // keep[p]: page p may hold a selected row
	ranges  []expr.Range
	sel     []int64
	j       expr.Joined
}

var scanStates = sync.Pool{New: func() any { return new(scanState) }}

// pageCounts is what one predicate scan did with the heap's pages.
type pageCounts struct{ read, pruned int }

// SelectRows evaluates a dimension predicate σ_cnj(D_j) against the
// dimension heap and returns the selected rows — the paper issues the
// predicate query to the underlying engine before mutating any shared
// state, so a scan error leaves the plane untouched.
func SelectRows(tab *catalog.Table, pred expr.Node) (Rows, error) {
	rows, _, err := selectRows(tab.Heap, pred)
	return rows, err
}

// selectRows is SelectRows over a heap, reporting its page counts. It
// reads only the pages that can hold a selected row: the predicate's
// top-level conjunct ranges (expr.ConjunctRanges) are tested against the
// heap's zone maps, and a page whose synopsis is disjoint from any of
// them is skipped without touching the device. The heap maintains its
// own synopsis on every append and in-place update (widen-only), so no
// writer has to know the pruning exists. Every page has a synopsis, the
// unflushed tail included; only pages appended during the scan are read
// untested. Each page is read at its own moment, exactly as a full scan's
// would be.
func selectRows(h *storage.HeapFile, pred expr.Node) (Rows, pageCounts, error) {
	ncols := h.NumCols()
	st := scanStates.Get().(*scanState)
	defer func() {
		st.sel, st.j.Fact = st.sel[:0], nil
		scanStates.Put(st)
	}()
	if need := h.RowsPerPage() * ncols; cap(st.vals) < need {
		st.vals = make([]int64, need)
	}
	if st.scratch == nil {
		st.scratch = make([]byte, storage.PageSize)
	}

	var pc pageCounts
	st.ranges = expr.ConjunctRanges(pred, st.ranges[:0])
	if expr.Unsatisfiable(st.ranges) {
		pc.pruned = h.NumPages()
		return Rows{ncols: ncols}, pc, nil
	}
	keep := st.prune(h)
	for p := 0; p < h.NumPages(); p++ {
		if p < len(keep) && !keep[p] {
			pc.pruned++
			continue
		}
		n, err := h.ReadPage(p, st.vals, st.scratch)
		if err != nil {
			return Rows{}, pc, err
		}
		pc.read++
		for r := 0; r < n; r++ {
			st.j.Fact = st.vals[r*ncols : (r+1)*ncols]
			if pred.Eval(&st.j) != 0 {
				st.sel = append(st.sel, st.j.Fact...)
			}
		}
	}
	out := make([]int64, len(st.sel))
	copy(out, st.sel)
	return Rows{vals: out, ncols: ncols}, pc, nil
}

// prune returns the verdict for every page: keep[p] is false iff page
// p's synopsis is disjoint from one of st.ranges. A column whose range
// intersects every page (AllPagesIntersect) costs O(1) and tests no page;
// a nil result keeps every page.
func (st *scanState) prune(h *storage.HeapFile) []bool {
	var keep []bool
	for _, r := range st.ranges {
		if h.AllPagesIntersect(r.Col, r.Min, r.Max) {
			continue
		}
		if keep == nil {
			n := h.NumPages()
			if cap(st.keep) < n {
				st.keep = make([]bool, n)
			}
			keep = st.keep[:n]
			for p := range keep {
				keep[p] = true
			}
		}
		h.ClearDisjoint(r.Col, 0, 1, r.Min, r.Max, keep)
	}
	return keep
}
