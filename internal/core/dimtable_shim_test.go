package core

// Test-only plumbing for the Filter unit tests and benchmarks: a
// standalone dimState over a private store, plus per-dimension admit and
// remove mirroring what dimplane.Plane does per dimension. Production
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
