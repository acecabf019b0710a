package core

// PageSource abstracts the physical representation behind the continuous
// fact scan. *storage.HeapFile satisfies it; decorators over it (a shard's
// strided view, fault injection, tests' page gates) wrap one.
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
// match. *storage.HeapFile satisfies it; sources that don't simply get no
// page-level pruning. Every page the source has carries a synopsis.
// Admission reads it in bulk, never per cell (needPagesFor, zonemap.go):
// one O(1) question per range column, then — only for columns that can
// prune — one disjointness pass over the page bitmap, one call and one
// lock acquisition in the source.
type BoundsSource interface {
	// AllPagesIntersect reports whether every page's synopsis
	// intersects [lo,hi] on column col, i.e. the range prunes nothing.
	// It may answer false when in doubt, never true wrongly; unknown
	// columns and sources without synopses answer true.
	AllPagesIntersect(col int, lo, hi int64) bool
	// ClearDisjoint clears keep[i] for every page first+i*stride whose
	// synopsis on column col is disjoint from [lo,hi], and returns how
	// many bits it cleared (bits already false stay false, uncounted).
	// Pages past the source's last page, and unknown columns, clear
	// nothing.
	ClearDisjoint(col, first, stride int, lo, hi int64, keep []bool) int
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
