package core

import (
	"cjoin/internal/catalog"
	"cjoin/internal/storage"
)

// scanPart is one partition of the continuous scan's input. bounds is
// the partition's zone-map face (nil when the source has none), captured
// from the unwrapped source so fault wrappers don't hide it.
type scanPart struct {
	src    PageSource
	bounds BoundsSource
}

// factScan is the continuous scan feeding the Preprocessor (§3.1): it
// cycles over the fact source — or, for a partitioned star (§5), over a
// sequence of fact partitions — forever, in a stable order (§3.3.3),
// reporting the (partition, page) of every page it delivers so each
// query's countdown can charge the pages of its own page set. For a
// partition-dealt shard the sequence is a subset of the star's
// partitions (ShardConfig.PartSubset), and global maps each scan-local
// partition back to its star-wide index, the coordinate system of
// NeededPartitions, however the partitions were dealt.
type factScan struct {
	parts  []scanPart
	global []int // star-wide partition index of each scan-local part

	partIdx int
	page    int
	scratch []byte

	// zmSkipped counts pages the scan hopped over because no resident
	// query's page set holds them (zone-mapped away, or appended after
	// every resident cut); the preprocessor drains it into the telemetry
	// plane after each delivered page.
	zmSkipped int64
}

// newFactScan builds the continuous scan. wrap, if non-nil, interposes
// on every physical source — the fault injector's seam (ISSUE 6); the
// wrapped source must preserve the original's geometry.
func newFactScan(star *catalog.Star, override PageSource, subset []int, wrap func(PageSource) PageSource) *factScan {
	if wrap == nil {
		wrap = func(s PageSource) PageSource { return s }
	}
	var parts []scanPart
	var global []int
	if override != nil {
		parts = []scanPart{{src: wrap(override), bounds: boundsOf(override)}}
		global = []int{0}
	} else {
		all := star.Partitions()
		if subset == nil {
			subset = make([]int, len(all))
			for i := range all {
				subset[i] = i
			}
		}
		for _, g := range subset {
			parts = append(parts, scanPart{src: wrap(all[g].Heap), bounds: boundsOf(all[g].Heap)})
			global = append(global, g)
		}
	}
	return &factScan{parts: parts, global: global, scratch: make([]byte, storage.PageSize)}
}

// pagesInPart returns the page count of scan-local partition i.
func (s *factScan) pagesInPart(i int) int { return s.parts[i].src.NumPages() }

// takeSkipped drains the count of zone-map-skipped pages.
func (s *factScan) takeSkipped() int64 {
	k := s.zmSkipped
	s.zmSkipped = 0
	return k
}

// globalOf maps a scan-local partition index to the star's global
// partition index (they differ when the scan covers a dealt subset).
func (s *factScan) globalOf(i int) int { return s.global[i] }

// advance moves the cursor to the next scannable page, hopping past
// exhausted or skipped partitions and — within an eligible partition —
// past pages skipPage rejects, wrapping to the first partition as
// needed. It reports whether it wrapped. Pages rejected by skipPage are
// tallied into zmSkipped, once per pass over them.
func (s *factScan) advance(skipPart func(part int) bool, skipPage func(part, page int) bool) (wrapped bool) {
	for hops := 0; hops <= len(s.parts); hops++ {
		if s.partIdx >= len(s.parts) {
			s.partIdx = 0
			s.page = 0
			wrapped = true
		}
		np := s.parts[s.partIdx].src.NumPages()
		if s.page < np && (skipPart == nil || !skipPart(s.partIdx)) {
			if skipPage != nil {
				for s.page < np && skipPage(s.partIdx, s.page) {
					s.page++
					s.zmSkipped++
				}
			}
			if s.page < np {
				return wrapped
			}
		}
		s.partIdx++
		s.page = 0
	}
	return wrapped
}

// nextPage delivers the next page in the cycle, decoded into dst (the
// caller's batch row arena: RowsPerPage()*NumCols() values). skipPart, if
// non-nil, lets the caller omit partitions no active query needs (§5: "a
// sequential scan of the union of identified partitions"); skipPage
// likewise omits individual pages no resident query's page set holds.
// It returns the row count, the partition and page index, and whether
// the scan wrapped past the end to produce this page. n == 0 with
// err == nil means nothing is scannable (empty or fully skipped fact
// table). A failed read does not advance the cursor, so a retry
// re-decodes the same page into the same dst.
func (s *factScan) nextPage(dst []int64, skipPart func(part int) bool, skipPage func(part, page int) bool) (n, part, page int, wrapped bool, err error) {
	wrapped = s.advance(skipPart, skipPage)
	if s.partIdx >= len(s.parts) {
		// Everything is empty or skipped.
		return 0, 0, 0, wrapped, nil
	}
	p := s.parts[s.partIdx]
	if s.page >= p.src.NumPages() || (skipPart != nil && skipPart(s.partIdx)) ||
		(skipPage != nil && skipPage(s.partIdx, s.page)) {
		return 0, s.partIdx, 0, wrapped, nil
	}
	n, err = p.src.ReadPage(s.page, dst, s.scratch)
	if err != nil {
		return 0, s.partIdx, s.page, wrapped, err
	}
	part, page = s.partIdx, s.page
	// Advance by one page only; partition hand-off happens lazily in
	// advance so a single growing heap picks up appended tail pages
	// before wrapping.
	s.page++
	return n, part, page, wrapped, nil
}
