package core

import (
	"sync/atomic"

	"cjoin/internal/catalog"
	"cjoin/internal/dimht"
	"cjoin/internal/dimplane"
)

// dimState is the probe-side half of one dimension's Filter: schema
// wiring, per-pipeline run-time statistics for on-the-fly Filter ordering
// (§3.4), and a handle on the shared store owned by the executor's
// dimension plane (internal/dimplane).
//
// The write side — admission, removal, slot lifecycle — lives entirely in
// dimplane.Plane and runs exactly once per logical query no matter how
// many pipelines probe the store. This dimState only reads: it pins an
// immutable dimht snapshot per batch (lock-free).
type dimState struct {
	index  int // dimension position within the star
	table  *catalog.Table
	fkCol  int
	keyCol int

	store *dimplane.CowStore

	tuplesIn atomic.Int64
	probes   atomic.Int64
	drops    atomic.Int64
}

func newDimState(star *catalog.Star, index int, store *dimplane.CowStore) *dimState {
	return &dimState{
		index:  index,
		table:  star.Dims[index],
		fkCol:  star.FKCol[index],
		keyCol: star.KeyCol[index],
		store:  store,
	}
}

// refCount returns the number of active queries referencing the
// dimension (shared plane state, identical across pipelines).
func (d *dimState) refCount() int { return d.store.RefCount() }

// size returns the number of stored dimension tuples.
func (d *dimState) size() int { return d.store.Len() }

// slot markers for the two-pass probe. Table slots are >= 0; miss and
// skip ride in the same scratch array.
const (
	slotMiss = int32(-1)
	slotSkip = int32(-2)
)

// filterBatch runs the Filter over one batch: the CJOIN hot loop. One
// atomic load pins a consistent (table, b_Dj, refs) snapshot for the
// whole batch; no lock is taken, and the snapshot stays valid however
// many queries the plane admits or retires meanwhile. The batch records
// the snapshot (b.snaps) because the slots this Filter attaches are
// indices into it.
//
// The loop is split into two passes over the selection — hash/probe
// first, then AND/select — so the probe pass issues its independent
// memory loads back to back (the hardware can overlap the misses) instead
// of interleaving them with the branchy selection logic. Neither pass
// moves a tuple: survivors are the indices kept in b.sel.
func (d *dimState) filterBatch(b *batch) {
	s := d.store.Snapshot()
	if s.Refs() == 0 {
		// No active query references this dimension: b_Dj covers every
		// relevant bit, the AND is a no-op, and probing is pointless.
		return
	}
	b.snaps[d.index] = s
	in := int64(len(b.sel))
	var probes, drops int64
	if s.Words() == 1 {
		probes, drops = filterBatchWord(d, b, s)
	} else {
		probes, drops = filterBatchVec(d, b, s)
	}
	d.tuplesIn.Add(in)
	d.probes.Add(probes)
	d.drops.Add(drops)
}

// filterBatchWord is the single-word fast path (maxConc <= 64): the whole
// bit-vector is one uint64, so the probe-skip test, the AND, and the
// zero-check are plain register operations with no slice iteration.
func filterBatchWord(d *dimState, b *batch, s *dimht.Snapshot) (probes, drops int64) {
	mask := s.MaskWord()
	sel := b.sel
	slots := b.slots[:len(sel)]
	bvs, rows := b.bvArena, b.rowArena
	ncols, fk := b.ncols, d.fkCol

	// Pass 1: classify every tuple and resolve its probe.
	for k, i := range sel {
		if bvs[i]&^mask == 0 {
			// Probe-skip optimization (§3.2.2): τ is relevant only to
			// queries that do not reference D_j.
			slots[k] = slotSkip
			continue
		}
		slots[k] = s.Lookup(rows[int(i)*ncols+fk])
	}

	// Pass 2: AND, attach, select.
	n := 0
	attach := b.dimSlot[d.index:]
	ndims := b.ndims
	for k, i := range sel {
		sl := slots[k]
		if sl == slotSkip {
			sel[n] = i
			n++
			continue
		}
		probes++
		w := bvs[i]
		if sl >= 0 {
			w &= s.Word(sl)
			attach[int(i)*ndims] = sl + 1
		} else {
			w &= mask
		}
		if w == 0 {
			drops++
			continue
		}
		bvs[i] = w
		sel[n] = i
		n++
	}
	b.sel = sel[:n]
	return
}

// filterBatchVec is the general path for maxConc > 64: identical
// structure, multi-word bit-vector operations.
func filterBatchVec(d *dimState, b *batch, s *dimht.Snapshot) (probes, drops int64) {
	bDj := s.Mask()
	sel := b.sel
	slots := b.slots[:len(sel)]
	rows := b.rowArena
	ncols, fk := b.ncols, d.fkCol

	for k, i := range sel {
		if b.bv(i).AndNotIsZero(bDj) {
			slots[k] = slotSkip
			continue
		}
		slots[k] = s.Lookup(rows[int(i)*ncols+fk])
	}

	n := 0
	attach := b.dimSlot[d.index:]
	ndims := b.ndims
	for k, i := range sel {
		sl := slots[k]
		if sl == slotSkip {
			sel[n] = i
			n++
			continue
		}
		probes++
		bv := b.bv(i)
		if sl >= 0 {
			// Deliberately the inlinable Vec.And: an 8-word-block variant
			// that does not inline lost the A/B at mc=256 to its per-tuple
			// call overhead (see PERFORMANCE.md PR 3).
			bv.And(s.Bits(sl))
			attach[int(i)*ndims] = sl + 1
		} else {
			bv.And(bDj)
		}
		if bv.IsZero() {
			drops++
			continue
		}
		sel[n] = i
		n++
	}
	b.sel = sel[:n]
	return
}

// FilterStats is a snapshot of one Filter's run-time counters.
type FilterStats struct {
	Dimension string
	Stored    int
	TuplesIn  int64
	Probes    int64
	Drops     int64
}

// DropRate is the observed fraction of incoming tuples dropped.
func (s FilterStats) DropRate() float64 {
	if s.TuplesIn == 0 {
		return 0
	}
	return float64(s.Drops) / float64(s.TuplesIn)
}

func (d *dimState) stats() FilterStats {
	return FilterStats{
		Dimension: d.table.Name,
		Stored:    d.size(),
		TuplesIn:  d.tuplesIn.Load(),
		Probes:    d.probes.Load(),
		Drops:     d.drops.Load(),
	}
}

// decayStats halves the counters so the on-line optimizer tracks the
// current query mix rather than all history (§3.4). CAS loops keep
// concurrent Adds from Stage workers intact: a plain Load/Store pair
// would silently discard any Add landing between the two.
func (d *dimState) decayStats() {
	decayCounter(&d.tuplesIn)
	decayCounter(&d.probes)
	decayCounter(&d.drops)
}

func decayCounter(c *atomic.Int64) {
	for {
		v := c.Load()
		if c.CompareAndSwap(v, v/2) {
			return
		}
	}
}
