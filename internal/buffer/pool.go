// Package buffer implements a page buffer pool with CLOCK eviction.
//
// The conventional query-at-a-time engine reads fact and dimension pages
// through a pool of bounded size: when many concurrent queries scan a fact
// table much larger than the pool (the warehouse regime of §2.1), nearly
// every fact page read misses and goes to the shared disk. The CJOIN
// continuous scan deliberately bypasses the pool — one sequential stream
// needs no caching and must not evict dimension pages.
package buffer

import (
	"sync"
	"sync/atomic"

	"cjoin/internal/storage"
)

type frameKey struct {
	heap *storage.HeapFile
	page int
}

type frame struct {
	key   frameKey
	ref   atomic.Bool // CLOCK reference bit
	ready chan struct{}
	vals  []int64
	n     int
	err   error
}

// Pool caches decoded pages for any number of heap files. It is safe for
// concurrent use; page loads release the pool lock so a slow (simulated)
// disk read does not block hits on other pages. A read-ahead window makes
// misses fetch whole extents in one device request, the way scans behave
// under OS read-ahead.
type Pool struct {
	capPages  int
	readAhead int

	mu     sync.Mutex
	frames map[frameKey]*frame
	ring   []*frame
	hand   int

	hits   atomic.Int64
	misses atomic.Int64
}

// Stats reports pool hit/miss counters.
type Stats struct{ Hits, Misses int64 }

// NewPool returns a pool that holds at most capPages pages and fetches
// readAhead pages per miss (minimum 1).
func NewPool(capPages, readAhead int) *Pool {
	if capPages < 1 {
		capPages = 1
	}
	if readAhead < 1 {
		readAhead = 1
	}
	if readAhead > capPages {
		readAhead = capPages
	}
	return &Pool{capPages: capPages, readAhead: readAhead, frames: make(map[frameKey]*frame, capPages)}
}

// Stats returns a snapshot of the hit/miss counters.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}

// ReadPage copies the decoded rows of the given page into dst and returns
// the row count. dst needs capacity for RowsPerPage()*NumCols() values.
// The mutable tail page of a heap is read through, never cached.
func (p *Pool) ReadPage(h *storage.HeapFile, page int, dst []int64) (int, error) {
	if page >= h.FlushedPages() {
		p.misses.Add(1)
		scratch := make([]byte, storage.PageSize)
		return h.ReadPage(page, dst, scratch)
	}
	key := frameKey{heap: h, page: page}

	p.mu.Lock()
	if f, ok := p.frames[key]; ok {
		p.mu.Unlock()
		<-f.ready
		if f.err != nil {
			return 0, f.err
		}
		f.ref.Store(true)
		p.hits.Add(1)
		copy(dst, f.vals[:f.n*h.NumCols()])
		return f.n, nil
	}
	// Miss: install loading frames for the extent [page, page+k), where
	// k is capped by the read-ahead window, the flushed region, and the
	// first already-cached page. Then read the extent outside the lock.
	flushed := h.FlushedPages()
	k := 1
	for k < p.readAhead && page+k < flushed {
		if _, cached := p.frames[frameKey{heap: h, page: page + k}]; cached {
			break
		}
		k++
	}
	extent := make([]*frame, k)
	for i := range extent {
		f := &frame{key: frameKey{heap: h, page: page + i}, ready: make(chan struct{})}
		p.evictLocked()
		p.frames[f.key] = f
		p.ring = append(p.ring, f)
		extent[i] = f
	}
	p.mu.Unlock()
	p.misses.Add(1)

	buf := make([]byte, k*storage.PageSize)
	got, err := h.ReadExtent(page, k, buf)
	ncols := h.NumCols()
	for i, f := range extent {
		f.vals = make([]int64, h.RowsPerPage()*ncols)
		if err != nil || i >= got {
			// Fall back to a single-page read (non-contiguous layout).
			f.n, f.err = h.ReadPage(f.key.page, f.vals, buf[:storage.PageSize])
		} else {
			f.n, f.err = h.DecodePage(buf[i*storage.PageSize:(i+1)*storage.PageSize], f.vals)
		}
		close(f.ready)
	}
	first := extent[0]
	if first.err != nil {
		p.mu.Lock()
		for _, f := range extent {
			if f.err != nil {
				p.dropLocked(f)
			}
		}
		p.mu.Unlock()
		return 0, first.err
	}
	copy(dst, first.vals[:first.n*ncols])
	return first.n, nil
}

// evictLocked makes room for one more frame using the CLOCK policy.
func (p *Pool) evictLocked() {
	for len(p.ring) >= p.capPages {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		select {
		case <-f.ready:
		default:
			p.hand++ // still loading; skip
			continue
		}
		if f.ref.CompareAndSwap(true, false) {
			p.hand++
			continue
		}
		p.dropLocked(f)
	}
}

func (p *Pool) dropLocked(f *frame) {
	delete(p.frames, f.key)
	for i, g := range p.ring {
		if g == f {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			return
		}
	}
}

// Len returns the number of cached frames.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ring)
}
