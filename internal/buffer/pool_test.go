package buffer

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cjoin/internal/disk"
	"cjoin/internal/storage"
)

func buildHeap(t *testing.T, rows int64) *storage.HeapFile {
	t.Helper()
	h := storage.CreateHeap(disk.NewMem(), 1)
	for i := int64(0); i < rows; i++ {
		h.Append([]int64{i})
	}
	return h
}

func TestHitMiss(t *testing.T) {
	h := buildHeap(t, 5000) // several pages
	p := NewPool(16, 1)
	dst := make([]int64, h.RowsPerPage())
	if _, err := p.ReadPage(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadPage(h, 0, dst); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if dst[0] != 0 {
		t.Fatalf("page 0 row 0 = %d", dst[0])
	}
}

func TestEvictionBounded(t *testing.T) {
	h := buildHeap(t, 1023*10) // 10 full pages
	p := NewPool(3, 1)
	dst := make([]int64, h.RowsPerPage())
	for page := 0; page < 10; page++ {
		if _, err := p.ReadPage(h, page, dst); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() > 3 {
		t.Fatalf("pool grew to %d frames", p.Len())
	}
	// All were cold misses.
	if s := p.Stats(); s.Misses != 10 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTailNeverCached(t *testing.T) {
	h := buildHeap(t, 10) // all rows in the tail page
	p := NewPool(4, 1)
	dst := make([]int64, h.RowsPerPage())
	if n, err := p.ReadPage(h, 0, dst); err != nil || n != 10 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	h.Append([]int64{10})
	n, err := p.ReadPage(h, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 || dst[10] != 10 {
		t.Fatalf("stale tail served: n=%d", n)
	}
}

func TestCorrectContentUnderEviction(t *testing.T) {
	h := buildHeap(t, 1023*8)
	p := NewPool(2, 1)
	dst := make([]int64, h.RowsPerPage())
	for round := 0; round < 3; round++ {
		for page := 0; page < 8; page++ {
			n, err := p.ReadPage(h, page, dst)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if dst[i] != int64(page*1023+i) {
					t.Fatalf("page %d row %d = %d", page, i, dst[i])
				}
			}
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	h := buildHeap(t, 1023*20)
	p := NewPool(8, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]int64, h.RowsPerPage())
			for r := 0; r < 100; r++ {
				page := (w*7 + r) % 20
				n, err := p.ReadPage(h, page, dst)
				if err != nil {
					t.Error(err)
					return
				}
				if n > 0 && dst[0] != int64(page*1023) {
					t.Errorf("page %d first row %d", page, dst[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p.Len() > 8 {
		t.Fatalf("pool exceeded capacity: %d", p.Len())
	}
}

func TestReadErrorPropagates(t *testing.T) {
	h := buildHeap(t, 10)
	p := NewPool(2, 1)
	dst := make([]int64, h.RowsPerPage())
	if _, err := p.ReadPage(h, 99, dst); err == nil {
		t.Fatal("expected page-range error")
	}
}

// TestReadAheadMatchesHeap drives the read-ahead path: pools that fetch
// 2-, 4- and 16-page extents over two heaps whose pages interleave on one
// device (so some extents break early) and that each end in a tail. Every
// page read through the pool, cold or cached, equals HeapFile.ReadPage.
func TestReadAheadMatchesHeap(t *testing.T) {
	dev := disk.NewMem()
	a, b := storage.CreateHeap(dev, 2), storage.CreateHeap(dev, 2)
	rpp := int64(a.RowsPerPage())
	for i := int64(0); i < 10*rpp+7; i++ {
		a.Append([]int64{i, -i})
		if i%(3*rpp) == 0 {
			b.Append([]int64{i, i})
		}
		if i%rpp == rpp-1 && i/rpp%4 == 1 {
			for j := int64(0); j < rpp; j++ {
				b.Append([]int64{j, j})
			}
		}
	}
	for _, readAhead := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("readahead=%d", readAhead), func(t *testing.T) {
			p := NewPool(64, readAhead)
			got := make([]int64, rpp*2)
			want := make([]int64, rpp*2)
			scratch := make([]byte, storage.PageSize)
			for round := 0; round < 2; round++ {
				for _, h := range []*storage.HeapFile{a, b} {
					for page := 0; page < h.NumPages(); page++ {
						n, err := p.ReadPage(h, page, got)
						if err != nil {
							t.Fatal(err)
						}
						wantN, err := h.ReadPage(page, want, scratch)
						if err != nil {
							t.Fatal(err)
						}
						if n != wantN || !slices.Equal(got[:n*2], want[:n*2]) {
							t.Fatalf("round %d page %d: pool read differs from the heap", round, page)
						}
					}
				}
			}
			// Extents of at least 2 pages: a's 10 flushed pages cannot all miss.
			if s := p.Stats(); s.Misses >= int64(a.NumPages()+b.NumPages()) {
				t.Fatalf("read-ahead fetched no extent: %+v", s)
			}
		})
	}
}

// TestReadAheadStopsAtCachedPage: a miss fetches an extent only up to
// the first page already in the pool, so no page is loaded twice.
func TestReadAheadStopsAtCachedPage(t *testing.T) {
	h := buildHeap(t, 1023*8) // 8 full pages
	p := NewPool(16, 4)
	dst := make([]int64, h.RowsPerPage())
	if _, err := p.ReadPage(h, 2, dst); err != nil { // caches pages 2-5
		t.Fatal(err)
	}
	if _, err := p.ReadPage(h, 0, dst); err != nil { // caches pages 0-1 only
		t.Fatal(err)
	}
	if got := p.Len(); got != 6 {
		t.Fatalf("pool holds %d frames after two extents, want 6", got)
	}
	for page := 0; page < 6; page++ {
		n, err := p.ReadPage(h, page, dst)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1023 || dst[0] != int64(page*1023) || dst[n-1] != int64(page*1023+n-1) {
			t.Fatalf("page %d: n=%d first=%d", page, n, dst[0])
		}
	}
	if s := p.Stats(); s.Misses != 2 || s.Hits != 6 {
		t.Fatalf("stats %+v: want 2 extent misses and 6 hits", s)
	}
}

// TestReadAheadTailBecomesFlushed: with read-ahead, the tail is still read
// through, and once appends flush it the pool reads the full page from
// the device instead of serving the tail it saw before.
func TestReadAheadTailBecomesFlushed(t *testing.T) {
	h := buildHeap(t, 1023*2+10) // 2 full pages and a 10-row tail
	p := NewPool(16, 4)
	dst := make([]int64, h.RowsPerPage())
	for page := 0; page < 3; page++ {
		if _, err := p.ReadPage(h, page, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Len(); got != 2 {
		t.Fatalf("pool holds %d frames, want the 2 flushed pages", got)
	}
	for i := int64(1023*2 + 10); i < 1023*3+1; i++ {
		h.Append([]int64{i})
	}
	n, err := p.ReadPage(h, 2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1023 || dst[0] != 1023*2 || dst[n-1] != 1023*3-1 {
		t.Fatalf("flushed page 2: n=%d first=%d last=%d", n, dst[0], dst[n-1])
	}
	if n, err := p.ReadPage(h, 3, dst); err != nil || n != 1 || dst[0] != 1023*3 {
		t.Fatalf("new tail: n=%d err=%v", n, err)
	}
}

// TestReadAheadOutOfRangeErrors: with read-ahead, a page before the first
// or past the last is an error, and the pool still serves the heap's
// pages after it.
func TestReadAheadOutOfRangeErrors(t *testing.T) {
	h := buildHeap(t, 1023*4+10)
	p := NewPool(16, 4)
	dst := make([]int64, h.RowsPerPage())
	for _, page := range []int{-1, h.NumPages(), h.NumPages() + 5} {
		if _, err := p.ReadPage(h, page, dst); err == nil {
			t.Fatalf("ReadPage(%d) of a %d-page heap must fail", page, h.NumPages())
		}
	}
	if n, err := p.ReadPage(h, 0, dst); err != nil || n != 1023 || dst[0] != 0 {
		t.Fatalf("page 0 after the failed reads: n=%d err=%v", n, err)
	}
}

// TestReadAheadCorruptPageErrors: a page whose header counts more rows
// than a page holds fails its read through the extent path, and the pool
// drops the failed frame instead of caching the error.
func TestReadAheadCorruptPageErrors(t *testing.T) {
	dev := disk.NewMem()
	h := storage.CreateHeap(dev, 1)
	rpp := int64(h.RowsPerPage())
	for i := int64(0); i < 4*rpp; i++ {
		h.Append([]int64{i})
	}
	// The heap is alone on the device, so its page 0 starts at offset 0.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(rpp+1))
	if err := dev.WriteAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	p := NewPool(16, 4)
	dst := make([]int64, rpp)
	for try := 0; try < 2; try++ {
		if _, err := p.ReadPage(h, 0, dst); err == nil {
			t.Fatalf("try %d: corrupt page 0 read without error", try)
		}
	}
	if n, err := p.ReadPage(h, 1, dst); err != nil || n != int(rpp) || dst[0] != rpp {
		t.Fatalf("page 1 beside the corrupt page: n=%d err=%v", n, err)
	}
	if s := p.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v: want both corrupt reads to miss and page 1 to hit", s)
	}
}
