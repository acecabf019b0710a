package core

// Test-only plumbing for the Filter unit tests and benchmarks: a
// standalone dimState over a private store, per-dimension admit and
// remove mirroring what dimplane.Plane does per dimension, and the one
// helper pair for hand-built batches (push a tuple, read back a
// survivor). Production
// admission lives exclusively in dimplane.Plane (admit once per logical
// query); these shims exist so the probe-path tests can drive one
// dimension's write side directly without constructing a plane and bound
// queries.

import (
	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/dimplane"
	"cjoin/internal/expr"
)

// newTestDimState builds a probe-side dimState over a fresh store — the
// old per-pipeline constructor's shape.
func newTestDimState(star *catalog.Star, index, maxConc int) *dimState {
	store := dimplane.NewCowStore(bitvec.Words(maxConc), star.Dims[index].Heap.NumCols())
	return newDimState(star, index, store)
}

// admit mirrors the plane's per-dimension half of Algorithm 1 as a batch
// of one: evaluate pred over the dimension heap and install the
// selection under slot, or mark the slot active-but-non-referencing when
// pred is nil.
func (d *dimState) admit(slot int, pred expr.Node) error {
	ins := dimplane.Install{Slot: slot}
	if pred != nil {
		rows, err := dimplane.SelectRows(d.table, pred)
		if err != nil {
			return err
		}
		ins = dimplane.Install{Slot: slot, Ref: true, KeyCol: d.keyCol, Rows: rows}
	}
	d.store.AdmitBatch([]dimplane.Install{ins})
	return nil
}

// remove mirrors the plane's per-dimension half of Algorithm 2.
func (d *dimState) remove(slot int, referenced bool) (emptied bool) {
	return d.store.Remove(slot, referenced)
}

// push appends one live tuple to a hand-built batch — the stand-in for
// "ReadPage decoded the row, emitPage selected it" — at the arena index
// after the last selected one, and returns its zeroed row and bit-vector
// for the test to fill. Nothing is attached to it.
func (b *batch) push() (row []int64, bv bitvec.Vec) {
	i := int32(0)
	if n := len(b.sel); n > 0 {
		i = b.sel[n-1] + 1
	}
	b.sel = append(b.sel, i)
	row, bv = b.row(i), b.bv(i)
	clear(row)
	bv.Reset()
	clear(b.dimSlot[int(i)*b.ndims : (int(i)+1)*b.ndims])
	return row, bv
}

// survivor reads back the k-th live tuple: its fact row, bit-vector, and
// per dimension the attached row (nil where the Filter attached none).
func (b *batch) survivor(k int) (row []int64, bv bitvec.Vec, dims [][]int64) {
	i := b.sel[k]
	dims = make([][]int64, b.ndims)
	for d := range dims {
		dims[d] = b.dimRow(i, d)
	}
	return b.row(i), b.bv(i), dims
}
