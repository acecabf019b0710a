package shard

import (
	"math/rand"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/storage"
)

// noBounds hides a heap's zone-map face.
type noBounds struct{ core.PageSource }

// TestStridedBoundsMatchBase pins the zone-map half of the stride
// mapping: a run over shard pages first, first+k, … must carry exactly
// the base heap's per-cell synopses of pages offset+(first+i*k)*stride,
// stop where the base's frozen pages stop, and "every page intersects"
// may only be claimed when it holds for each of the shard's frozen pages.
func TestStridedBoundsMatchBase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := storage.CreateHeap(disk.NewMem(), 3)
	for i := 0; i < 23*h.RowsPerPage()+9; i++ {
		h.Append([]int64{int64(i / 5), rng.Int63n(500), -int64(i)})
	}
	if err := h.UpdateCol(int64(4*h.RowsPerPage()), 0, 9999); err != nil {
		t.Fatal(err)
	}
	for stride := 1; stride <= 4; stride++ {
		for offset := 0; offset < stride; offset++ {
			s := &stridedSource{src: h, offset: offset, stride: stride}
			for col := 0; col < 3; col++ {
				for _, first := range []int{0, 1, 4} {
					for _, k := range []int{1, 2} {
						dst := make([]int64, 2*(s.NumPages()+2))
						n := s.ColBoundsRun(col, first, k, dst)
						for i := 0; i <= n; i++ {
							min, max, ok := h.PageColBounds(offset+(first+i*k)*stride, col)
							if i == n {
								if ok {
									t.Fatalf("stride %d/%d col %d first %d step %d: run stopped at %d but the next page is frozen",
										offset, stride, col, first, k, n)
								}
								break
							}
							if !ok || dst[2*i] != min || dst[2*i+1] != max {
								t.Fatalf("stride %d/%d col %d first %d step %d page %d: run [%d,%d], base [%d,%d] ok=%v",
									offset, stride, col, first, k, i, dst[2*i], dst[2*i+1], min, max, ok)
							}
						}
					}
				}
				for trial := 0; trial < 50; trial++ {
					lo := rng.Int63n(1200) - 600
					hi := lo + rng.Int63n(1200)
					if !s.AllPagesIntersect(col, lo, hi) {
						continue
					}
					for pg := 0; pg < s.NumPages(); pg++ {
						if min, max, ok := h.PageColBounds(offset+pg*stride, col); ok && (max < lo || min > hi) {
							t.Fatalf("stride %d/%d col %d: [%d,%d] claimed to intersect every page, page %d is [%d,%d]",
								offset, stride, col, lo, hi, pg, min, max)
						}
					}
				}
			}
		}
	}

	// A base without zone maps prunes nothing through the stride either.
	s := &stridedSource{src: noBounds{h}, offset: 1, stride: 2}
	if !s.AllPagesIntersect(0, 5, 5) {
		t.Fatal("a source without synopses must report every page as intersecting")
	}
	if n := s.ColBoundsRun(0, 0, 1, make([]int64, 8)); n != 0 {
		t.Fatalf("a source without synopses filled %d pages of bounds", n)
	}
}
