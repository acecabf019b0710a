package dimplane

import (
	"cjoin/internal/bitvec"
	"cjoin/internal/dimht"
)

// CowStore is one dimension's shared Filter store: the hash table HD_j
// plus the complement bitmap b_Dj (bit i set iff active query i does not
// reference D_j), which doubles as the filtering vector for fact tuples
// whose dimension tuple is absent from the table and as the probe-skip
// mask (§3.2.2).
//
// It is a dimht copy-on-write open-addressing table. The write side
// (AdmitBatch/Remove) belongs to the Plane and runs exactly once per
// logical query, building the next snapshot off to the side (writers
// serialize inside dimht.Table); the read side is probed concurrently by
// every pipeline attached to the plane, each loading an immutable
// Snapshot per batch and therefore taking no lock.
type CowStore struct {
	t *dimht.Table
}

// NewCowStore returns an empty lock-free store for bit-vectors of the
// given word width over dimension rows of ncols columns.
func NewCowStore(words, ncols int) *CowStore {
	return &CowStore{t: dimht.New(words, ncols)}
}

// Snapshot pins the current immutable (table, b_Dj, refs) version — the
// Filter hot loop's one atomic load per batch.
func (c *CowStore) Snapshot() *dimht.Snapshot { return c.t.Load() }

// RefCount returns the number of active queries referencing the
// dimension.
func (c *CowStore) RefCount() int { return c.t.Load().Refs() }

// Len returns the number of stored dimension tuples.
func (c *CowStore) Len() int { return c.t.Load().Len() }

// MemBytes estimates the resident bytes of the store's current version
// (keys, bit-vectors, rows); shared by every prober, so it is reported
// once per plane, not once per pipeline.
func (c *CowStore) MemBytes() int64 { return c.t.Load().MemBytes() }

// Install is one query's contribution to an AdmitBatch on one
// dimension: either a non-referencing tag (Ref false) or the rows its
// predicate selected (Ref true). Rows may be shared with the plane's
// predicate cache and with other slots in the batch; stores must treat
// them as immutable.
type Install struct {
	Slot   int
	Ref    bool
	KeyCol int  // key column index; meaningful when Ref
	Rows   Rows // selected rows; meaningful when Ref
}

// AdmitBatch is the store's one write entry (Algorithm 1): it installs K
// queries' tags in one version transition, so the whole batch — a lone
// query is a batch of one — costs a single snapshot publication.
func (c *CowStore) AdmitBatch(installs []Install) {
	c.t.Update(func(b *dimht.Builder) {
		// Phase 1: all non-referencing slots — K mask bits, then ONE
		// arena sweep ORs the whole batch's tags into existing entries.
		mask := make(bitvec.Vec, len(b.Mask()))
		for _, ins := range installs {
			if !ins.Ref {
				b.SetMaskBit(ins.Slot)
				mask.Set(ins.Slot)
			}
		}
		b.SetBitsAll(mask)
		// Phase 2: referencing slots. New entries copy b_Dj, which now
		// carries every batchmate's non-ref bit, so ordering within the
		// batch cannot be observed by probers.
		for _, ins := range installs {
			if !ins.Ref {
				continue
			}
			b.AddRef()
			for r := range ins.Rows.Len() {
				row := ins.Rows.Row(r)
				b.Upsert(row[ins.KeyCol], row).Set(ins.Slot)
			}
		}
	})
}

// Remove clears bit slot everywhere and garbage-collects entries
// selected by no remaining referencing query (Algorithm 2). It reports
// whether the table emptied.
func (c *CowStore) Remove(slot int, referenced bool) (emptied bool) {
	s := c.t.Update(func(b *dimht.Builder) {
		b.ClearMaskBit(slot)
		if referenced {
			b.DropRef()
		}
		b.ClearBitAll(slot)
		mask := b.Mask()
		b.Retain(func(bv bitvec.Vec) bool { return !bv.AndNotIsZero(mask) })
	})
	return s.Len() == 0 && s.Refs() == 0
}

// ForEach visits every stored entry; the bit-vector aliases internal
// storage and must not be modified or retained.
func (c *CowStore) ForEach(fn func(key int64, row []int64, bv bitvec.Vec) bool) {
	c.t.Load().ForEach(fn)
}
