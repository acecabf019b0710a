package core

import (
	"slices"

	"cjoin/internal/catalog"
	"cjoin/internal/dimplane"
	"cjoin/internal/expr"
	"cjoin/internal/query"
)

// Zone-map pruning generalizes §5 partition pruning from partitions to
// pages. At admission the dimension plane already knows, per referenced
// dimension, the key range of the tuples the query selected
// (dimplane.SelectedKeyRange — the same correlation NeededPartitions
// uses). Any fact row that joins with a selected dimension tuple must
// carry a foreign key inside that range, so the range is a sound
// constraint on the fact's FK column; direct range predicates on fact
// columns constrain their columns the same way. Intersecting these
// ranges with the per-page min/max synopses (storage zone maps) yields a
// per-page bitmap: a page whose synopsis is disjoint from any constraint
// holds no row that can contribute to the query and is charged to — and,
// when no resident query needs it, physically skipped by — the
// continuous scan.
//
// The bitmap is cut on the submitting goroutine (Pipeline.Activate), not
// in the Preprocessor's stall window: §3.3.1 keeps everything expensive
// ahead of the pause, and the synopses are read through BoundsSource's
// bulk face — an O(1) "can this range prune at all?" per column, then
// one lock-once disjointness pass over the page bitmap for each range
// that can — so a query whose ranges prune nothing costs O(range
// columns) and allocates no bitmap.

// pruneRanges derives the fact-column range constraints implied by an
// admitted query: each referenced dimension's selected key range on its
// FK column, intersected with the fact predicate's conjunct ranges
// (expr.ConjunctRanges). empty reports that the constraints are
// unsatisfiable (a referenced dimension predicate selected no tuples, or
// contradictory fact ranges): the query needs zero fact pages. The query
// must already be admitted to the plane at slot.
func pruneRanges(star *catalog.Star, plane *dimplane.Plane, q *query.Bound, slot int) (ranges []expr.Range, empty bool) {
	for i := range star.Dims {
		if !q.DimRefs[i] || !q.HasDimPred(i) {
			continue
		}
		minKey, maxKey, any := plane.SelectedKeyRange(i, slot)
		if !any {
			return nil, true
		}
		ranges = expr.Intersect(ranges, star.FKCol[i], minKey, maxKey)
	}
	if q.HasFactPred() {
		ranges = expr.ConjunctRanges(q.FactPred, ranges)
	}
	if expr.Unsatisfiable(ranges) {
		return nil, true
	}
	return ranges, false
}

// pageSet is a run's page set on one scan-local partition, cut when the
// run is activated. frozen is the partition's page count at the cut, a
// partial tail page included; bits, when non-nil, marks the frozen pages
// the zone maps keep; needed counts the pages the run's countdown
// charges. A partition that §5 prunes (partPruned), or that an
// unsatisfiable range set prunes, needs none. The union of the resident
// runs' sets is exactly what the scan reads (preprocessor.skipPart,
// skipPage). Rows appended after the cut — onto the tail page or onto
// pages beyond frozen — are invisible to the run, so the synopses at the
// cut decide its pages, and the scan reads pages beyond frozen only for
// a run whose later cut holds them.
type pageSet struct {
	frozen     int
	bits       []bool
	needed     int64
	partPruned bool
}

// needPagesFor cuts a run's page sets, one per scan-local partition:
// each partition's page count now, narrowed by §5 partition pruning
// (needParts, indexed by the star's global partition order; nil means
// every partition) and by the query's column ranges intersected with the
// page synopses. Sources with no zone maps need every page. It touches
// only the scan's immutable topology and the sources' own synchronized
// accessors, so it is safe off the Preprocessor goroutine.
//
// Every page present at the cut has a synopsis, the heap's unflushed
// tail included, and testing the tail is as sound as testing any other
// page. The query's snapshot was stamped at submit, before this cut at
// activation. txn.Manager.Append writes a commit's rows — and so folds
// them into their page's synopsis, under the heap lock — before it
// publishes the commit id, so the synopses read here hold every row the
// snapshot can see. Rows appended after the cut are invisible to the
// query, UpdateCol only widens a synopsis, and dimension heaps never take
// appends.
func (s *factScan) needPagesFor(rq *runningQuery, needParts []bool) []pageSet {
	sets := make([]pageSet, len(s.parts))
	for li := range s.parts {
		n := s.pagesInPart(li)
		ps := &sets[li]
		ps.frozen = n
		if needParts != nil && !needParts[s.globalOf(li)] {
			ps.partPruned = true
			continue
		}
		if rq.pruneEmpty {
			continue
		}
		ps.needed = int64(n)
		b := s.parts[li].bounds
		if b == nil {
			continue
		}
		var bits []bool
		for _, r := range rq.pruneRanges {
			if b.AllPagesIntersect(r.Col, r.Min, r.Max) {
				continue // the range prunes nothing: no bitmap for it
			}
			if bits == nil {
				bits = slices.Repeat([]bool{true}, n)
			}
			ps.needed -= int64(b.ClearDisjoint(r.Col, 0, 1, r.Min, r.Max, bits))
		}
		if ps.needed < int64(n) { // else AllPagesIntersect was only being cautious
			ps.bits = bits
		}
	}
	return sets
}
