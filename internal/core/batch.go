package core

import (
	"cjoin/internal/bitvec"
	"cjoin/internal/dimht"
)

// ctrlKind distinguishes the paper's control tuples (§3.3).
type ctrlKind int

const (
	// ctrlStart is the "query start" tuple appended when a query is
	// registered; the Distributor sets up its aggregation operator.
	ctrlStart ctrlKind = iota
	// ctrlEnd is the "end of query" tuple emitted right after the last
	// page of the query's countdown: the continuous scan has delivered
	// each page of its set once, which is the wrap back to its starting
	// tuple of §3.3.2, or the coverage of its needed partitions of §5.
	ctrlEnd
)

// Scan failures no longer flow through a control tuple: an unrecoverable
// scan error transitions the whole pipeline to the terminal Failed state
// (failure.go), whose sweep reports the typed cause for every resident
// query in one place.

// control is the payload of a control batch.
type control struct {
	kind ctrlKind
	rq   *runningQuery
	err  error
}

// batch is the unit of flow through the pipeline: either one control
// tuple or one decoded fact page. A data batch is flat — an in-flight
// fact tuple is a row index i into the batch's arenas, never a struct:
//
//   - rowArena[i*ncols : (i+1)*ncols] is the fact row, decoded there
//     directly by the source's ReadPage;
//   - bvArena[i*words : (i+1)*words] is the query-relevance bit-vector bτ;
//   - dimSlot[i*ndims+d] names the dimension row the Filter of dimension
//     d attached during probing (§3.2.2) as a dimht table slot plus one
//     (0 = nothing attached), resolved through snaps[d], the snapshot
//     that Filter pinned for this batch;
//   - sel lists the live row indices in increasing order. Filters rewrite
//     sel in place and never move a tuple.
//
// The only pointers a pooled batch holds are its arenas and ndims
// snapshot pointers, so creating, dropping and recycling a tuple touches
// no pointerful memory. Batches are sequenced by the Preprocessor; the
// Distributor restores sequence order, which preserves the control/data
// tuple ordering property of §3.3.3 under multi-threaded Stages.
type batch struct {
	seq    uint64
	ctrl   *control
	pooled bool

	sel []int32

	// backing arenas, preallocated once per pooled batch
	rowArena []int64
	bvArena  []uint64
	dimSlot  []int32
	// snaps[d] keeps dimension d's snapshot alive while dimSlot refers
	// into it: a COW snapshot lives exactly as long as a batch holds it.
	snaps []*dimht.Snapshot
	// slots is the scratch array for the Filter's two-pass probe, indexed
	// by position in sel: pass 1 records each tuple's resolved table slot
	// (or skip/miss marker), pass 2 applies the bit-vector AND and
	// rewrites sel.
	slots []int32
	ncols int
	words int
	ndims int
}

func newBatch(capRows, ncols, words, ndims int) *batch {
	return &batch{
		pooled:   true,
		sel:      make([]int32, 0, capRows),
		rowArena: make([]int64, capRows*ncols),
		bvArena:  make([]uint64, capRows*words),
		dimSlot:  make([]int32, capRows*ndims),
		snaps:    make([]*dimht.Snapshot, ndims),
		slots:    make([]int32, capRows),
		ncols:    ncols,
		words:    words,
		ndims:    ndims,
	}
}

// reset empties the selection for a new page; the arenas are overwritten
// by the next page's decode (rowArena) and emitPage (bvArena, dimSlot).
func (b *batch) reset() { b.sel = b.sel[:0] }

// row returns the fact row at arena index i.
func (b *batch) row(i int32) []int64 {
	return b.rowArena[int(i)*b.ncols : (int(i)+1)*b.ncols]
}

// bv returns the bit-vector at arena index i.
func (b *batch) bv(i int32) bitvec.Vec {
	return bitvec.Vec(b.bvArena[int(i)*b.words : (int(i)+1)*b.words])
}

// dimRow returns the row of dimension d attached to arena index i, or
// nil when that Filter attached nothing (probe skipped, or a miss).
func (b *batch) dimRow(i int32, d int) []int64 {
	if sl := b.dimSlot[int(i)*b.ndims+d]; sl != 0 {
		return b.snaps[d].Row(sl - 1)
	}
	return nil
}

func ctrlBatch(seq uint64, kind ctrlKind, rq *runningQuery, err error) *batch {
	return &batch{seq: seq, ctrl: &control{kind: kind, rq: rq, err: err}}
}
