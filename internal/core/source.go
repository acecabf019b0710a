package core

// PageSource abstracts the physical representation behind the continuous
// fact scan. *storage.HeapFile satisfies it, and so does a column-store
// scan/merge (internal/colstore), which is how the §5 column-store
// extension plugs in: "the continuous fact table scan can be realized
// with a continuous scan/merge of only those fact table columns that are
// accessed by the current query mix".
//
// A source must be stable: pages keep their positions across cycles
// (§3.3.3). Row width must match the star's fact schema; columns the
// query mix never touches may hold arbitrary values.
type PageSource interface {
	NumCols() int
	RowsPerPage() int
	NumPages() int
	ReadPage(page int, dst []int64, scratch []byte) (int, error)
}

// BoundsSource is the optional zone-map face of a PageSource: per-page
// min/max synopses for a column, used to skip pages no resident query can
// match. *storage.HeapFile satisfies it; sources that don't (e.g. the
// column-store scan/merge) simply get no page-level pruning. Admission
// reads it in bulk, never per cell (needPagesFor, zonemap.go): one O(1)
// question per range column, then — only for columns that can prune —
// the column's synopses in runs of boundsChunk pages, each run one call
// and one lock acquisition in the source.
type BoundsSource interface {
	// AllPagesIntersect reports whether every page with a frozen
	// synopsis intersects [lo,hi] on column col, i.e. the range prunes
	// nothing. It may answer false when in doubt, never true wrongly;
	// unknown columns and sources without synopses answer true.
	AllPagesIntersect(col int, lo, hi int64) bool
	// ColBoundsRun fills dst with the (min, max) synopsis pairs of
	// column col for pages first, first+stride, … and returns how many
	// pages it filled. It stops at the end of dst or at the first page
	// whose contents are not frozen (the heap tail) or unknown; pages
	// past the returned count match everything.
	ColBoundsRun(col, first, stride int, dst []int64) int
}

// boundsOf returns src's zone-map face, or nil. Bounds are captured from
// the unwrapped source: fault wrappers must preserve geometry, and bounds
// only ever gate which pages are read, never what is read.
func boundsOf(src PageSource) BoundsSource {
	if b, ok := src.(BoundsSource); ok {
		return b
	}
	return nil
}
