package core

// tuplePool is the paper's specialized allocator (§4): it "preallocates
// data structures for all in-flight tuples, whose number is determined
// based on the upper bound on the length of a tuple queue and the upper
// bound on the number of threads". The unit it hands out is a batch — the
// flat arenas for one decoded fact page (batch.go) — so creating a tuple
// is an index append and nothing is allocated, zeroed or write-barriered
// per tuple. Batches are recycled through a buffered channel, which makes
// reserve and release single atomic operations and gives the Preprocessor
// natural backpressure when the pipeline is saturated.
type tuplePool struct {
	free chan *batch
}

func newTuplePool(nBatches, capRows, ncols, words, ndims int) *tuplePool {
	p := &tuplePool{free: make(chan *batch, nBatches)}
	for i := 0; i < nBatches; i++ {
		p.free <- newBatch(capRows, ncols, words, ndims)
	}
	return p
}

// get blocks until a batch is available or stop closes; it returns nil on
// stop.
func (p *tuplePool) get(stop <-chan struct{}) *batch {
	select {
	case b := <-p.free:
		b.reset()
		return b
	case <-stop:
		return nil
	}
}

// put returns a pooled batch to the free list, dropping the dimension
// snapshots it pinned: an idle batch must not keep a retired query's
// table alive. Control batches are not pooled and are dropped here.
func (p *tuplePool) put(b *batch) {
	if b == nil || !b.pooled {
		return
	}
	clear(b.snaps)
	p.free <- b
}

// capSlots returns the pool capacity.
func (p *tuplePool) capSlots() int { return cap(p.free) }
