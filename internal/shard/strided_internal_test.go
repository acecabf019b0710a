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
// mapping: a disjointness pass over shard pages first, first+k, … must
// clear exactly the bits the base heap's per-cell synopses of pages
// offset+(first+i*k)*stride say are disjoint, the partial tail page
// included, and leave bits past the shard's last page alone; "every page
// intersects" may only be claimed when it holds for each of the shard's
// pages.
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
						lo := rng.Int63n(1200) - 600
						hi := lo + rng.Int63n(300)
						keep := make([]bool, s.NumPages()+2)
						for i := range keep {
							keep[i] = i%5 != 3 // a few bits arrive cleared
						}
						n := s.ClearDisjoint(col, first, k, lo, hi, keep)
						want := 0
						for i := range keep {
							wantKeep := i%5 != 3
							min, max, ok := h.PageColBounds(offset+(first+i*k)*stride, col)
							if (first+i*k < s.NumPages()) != ok {
								t.Fatalf("stride %d/%d: shard page %d has synopsis=%v", offset, stride, first+i*k, ok)
							}
							if wantKeep && ok && (max < lo || min > hi) {
								wantKeep = false
								want++
							}
							if keep[i] != wantKeep {
								t.Fatalf("stride %d/%d col %d first %d step %d [%d,%d]: bit %d is %v, base [%d,%d] ok=%v",
									offset, stride, col, first, k, lo, hi, i, keep[i], min, max, ok)
							}
						}
						if n != want {
							t.Fatalf("stride %d/%d col %d first %d step %d: cleared %d bits, %d pages are disjoint", offset, stride, col, first, k, n, want)
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
	if n := s.ClearDisjoint(0, 0, 1, 5, 5, []bool{true, true, true}); n != 0 {
		t.Fatalf("a source without synopses cleared %d pages", n)
	}
}
