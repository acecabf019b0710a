// Package dimht implements the specialized dimension hash table behind
// the CJOIN Filter stage.
//
// The paper stresses that the Filter hot loop — one hash probe and one
// bitwise AND per fact tuple per dimension (§3.2.2) — must run at memory
// speed, and that the implementation uses "specialized data structures"
// tuned for a read-mostly access pattern (§4). A Go map of pointers to
// heap-allocated entries costs three dependent cache misses per probe
// (bucket, entry, bit-vector) plus read-lock traffic on every batch.
//
// This package replaces it with an open-addressing table designed around
// that access pattern:
//
//   - power-of-two capacity with linear probing over a flat key array,
//     so a probe touches one cache line in the common case;
//   - per-entry query bit-vectors stored inline in a single flat arena
//     ([capacity][words]uint64), addressed by slot index — no per-entry
//     pointer, no per-entry allocation;
//   - dimension rows stored in a flat row arena, addressed by a row
//     offset per slot, so the Distributor reads attributes without
//     chasing an entry pointer;
//   - copy-on-write snapshots published through an atomic.Pointer:
//     Filters probe the current Snapshot entirely lock-free while the
//     Pipeline Manager builds the next Snapshot off to the side during
//     query admission (Algorithm 1) and finalization (Algorithm 2).
//
// A Snapshot is immutable after publication. Readers that obtained a
// Snapshot (or a row slice out of one) may keep using it after newer
// snapshots are published; the garbage collector reclaims it when the
// last reference drops. Writers mutate through Table.Update, which
// serializes concurrent updaters internally.
//
// The Snapshot also carries the dimension's complement bitmap b_Dj (bit i
// set iff active query i does not reference the dimension, §3.2.1) and
// its reference count, so one atomic load gives the Filter a mutually
// consistent view of the table, the probe-skip mask, and the activity
// flag.
package dimht

import (
	"math"
	"sync"
	"sync/atomic"

	"cjoin/internal/bitvec"
)

// emptyKey marks a free slot in the key array. Real keys equal to the
// sentinel are stored in a dedicated overflow slot (see Snapshot.sent).
const emptyKey = math.MinInt64

// minCapacity keeps every snapshot probeable without an emptiness check
// in the hot loop: the key array always has free slots to terminate a
// linear probe.
const minCapacity = 8

// maxLoadNum/maxLoadDen bound the load factor at 7/8 before growth.
// Linear probing degrades sharply past full; 7/8 keeps probe chains short
// while wasting little arena space.
const (
	maxLoadNum = 7
	maxLoadDen = 8
)

// hash is the 64-bit finalizer of splitmix64 — a full-avalanche mixer, so
// dense integer keys (the common case for dimension surrogate keys)
// spread uniformly over the power-of-two capacity.
func hash(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Snapshot is one immutable version of the table. Slot numbers returned
// by Lookup index the bits and offs arenas; slot len(keys) is the
// overflow slot for a key equal to the empty sentinel.
type Snapshot struct {
	keys []int64  // capacity slots; emptyKey = free
	offs []int32  // capacity+1 row offsets (last: sentinel overflow)
	bits []uint64 // (capacity+1)*words inline bit-vectors
	rows []int64  // count*ncols flat row arena

	mask  uint64 // capacity - 1
	words int    // bit-vector width in 64-bit words
	ncols int    // dimension row width
	count int    // occupied slots (including the overflow slot)
	sent  bool   // overflow slot occupied (a stored key == emptyKey)

	// CJOIN per-dimension state published atomically with the table.
	refs int        // active queries referencing the dimension
	bDj  bitvec.Vec // complement bitmap b_Dj (§3.2.1)
}

func newSnapshot(capacity, words, ncols int) *Snapshot {
	s := &Snapshot{
		keys:  make([]int64, capacity),
		offs:  make([]int32, capacity+1),
		bits:  make([]uint64, (capacity+1)*words),
		mask:  uint64(capacity - 1),
		words: words,
		ncols: ncols,
		bDj:   make(bitvec.Vec, words),
	}
	for i := range s.keys {
		s.keys[i] = emptyKey
	}
	return s
}

// Len returns the number of stored entries.
func (s *Snapshot) Len() int { return s.count }

// MemBytes returns the resident size of this snapshot's arenas (keys,
// row offsets, inline bit-vectors, row payload, and b_Dj).
func (s *Snapshot) MemBytes() int64 {
	return int64(len(s.keys))*8 + int64(len(s.offs))*4 +
		int64(len(s.bits))*8 + int64(len(s.rows))*8 + int64(len(s.bDj))*8
}

// Words returns the bit-vector width in 64-bit words.
func (s *Snapshot) Words() int { return s.words }

// Refs returns the number of active queries referencing the dimension as
// of this snapshot.
func (s *Snapshot) Refs() int { return s.refs }

// Mask returns the complement bitmap b_Dj as of this snapshot. The
// returned vector aliases the snapshot and must not be modified.
func (s *Snapshot) Mask() bitvec.Vec { return s.bDj }

// MaskWord returns the first word of b_Dj — the whole bitmap on the
// single-word fast path (maxConc <= 64).
func (s *Snapshot) MaskWord() uint64 { return s.bDj[0] }

// Lookup returns the slot holding key, or -1 if the key is absent. The
// probe is wait-free: at most capacity steps, one key-array load each.
func (s *Snapshot) Lookup(key int64) int32 {
	if key == emptyKey {
		if s.sent {
			return int32(len(s.keys))
		}
		return -1
	}
	h := hash(key) & s.mask
	for {
		k := s.keys[h]
		if k == key {
			return int32(h)
		}
		if k == emptyKey {
			return -1
		}
		h = (h + 1) & s.mask
	}
}

// Bits returns the bit-vector of the entry in slot. The returned vector
// aliases the snapshot arena and must not be modified.
func (s *Snapshot) Bits(slot int32) bitvec.Vec {
	i := int(slot) * s.words
	return bitvec.Vec(s.bits[i : i+s.words])
}

// Word returns the entry's bit-vector as a single word — valid only when
// Words() == 1, the register-resident fast path of the Filter hot loop.
func (s *Snapshot) Word(slot int32) uint64 { return s.bits[slot] }

// Row returns the dimension row of the entry in slot as a slice into the
// snapshot's flat row arena. The slice stays valid (and immutable) for
// the life of the snapshot, so it can be attached to in-flight fact
// tuples and read by the Distributor without synchronization.
func (s *Snapshot) Row(slot int32) []int64 {
	off := int(s.offs[slot]) * s.ncols
	return s.rows[off : off+s.ncols : off+s.ncols]
}

// ForEach calls fn for every stored entry until fn returns false. The bv
// argument aliases the snapshot arena and must not be modified.
func (s *Snapshot) ForEach(fn func(key int64, row []int64, bv bitvec.Vec) bool) {
	for i, k := range s.keys {
		if k == emptyKey {
			continue
		}
		if !fn(k, s.Row(int32(i)), s.Bits(int32(i))) {
			return
		}
	}
	if s.sent {
		slot := int32(len(s.keys))
		fn(emptyKey, s.Row(slot), s.Bits(slot))
	}
}

// Table is the mutable handle: an atomically published current Snapshot
// plus a writer lock. Readers call Load and never block; writers call
// Update and serialize among themselves only.
type Table struct {
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
}

// New returns an empty table for bit-vectors of the given word width over
// dimension rows of ncols columns.
func New(words, ncols int) *Table {
	if words < 1 {
		words = 1
	}
	t := &Table{}
	t.snap.Store(newSnapshot(minCapacity, words, ncols))
	return t
}

// Load returns the current snapshot. The snapshot is immutable; probing
// it requires no lock.
func (t *Table) Load() *Snapshot { return t.snap.Load() }

// Update runs fn on a mutable copy of the current snapshot and publishes
// the result, returning the new snapshot. Concurrent Updates serialize;
// readers see either the old or the new snapshot, never a partial write.
func (t *Table) Update(fn func(*Builder)) *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := newBuilder(t.snap.Load())
	fn(b)
	s := b.seal()
	t.snap.Store(s)
	return s
}

// Builder is a mutable copy of a snapshot, handed to Table.Update
// callbacks. It is single-use: seal invalidates it.
//
// The copy is lazy: the builder shares the parent snapshot's arrays
// until a mutation needs to write into them (privatize). Row-arena
// appends never privatize — new rows land beyond the parent's slice
// length, where no published snapshot reads — so updates that only flip
// bits (the common admit/remove case) copy just keys/offs/bits, and an
// update that touches nothing copies nothing.
type Builder struct {
	s       *Snapshot // scratch snapshot owned by the builder
	private bool      // keys/offs/bits no longer shared with the parent
	sealed  bool
}

func newBuilder(cur *Snapshot) *Builder {
	cp := *cur
	cp.bDj = cur.bDj.Clone()
	return &Builder{s: &cp}
}

// privatize unshares the in-place-mutable arrays from the parent
// snapshot. Writers that rebuild from scratch (grow, Retain) set private
// directly.
func (b *Builder) privatize() {
	if b.private {
		return
	}
	s := b.s
	s.keys = append([]int64(nil), s.keys...)
	s.offs = append([]int32(nil), s.offs...)
	s.bits = append([]uint64(nil), s.bits...)
	b.private = true
}

func (b *Builder) seal() *Snapshot {
	if b.sealed {
		panic("dimht: builder reused after publication")
	}
	b.sealed = true
	return b.s
}

// Len returns the number of stored entries.
func (b *Builder) Len() int { return b.s.count }

// Refs returns the dimension reference count under construction.
func (b *Builder) Refs() int { return b.s.refs }

// AddRef / DropRef adjust the dimension reference count.
func (b *Builder) AddRef()  { b.s.refs++ }
func (b *Builder) DropRef() { b.s.refs-- }

// Mask returns the complement bitmap under construction. Unlike the
// snapshot accessor, the builder's copy may be modified through the
// returned vector.
func (b *Builder) Mask() bitvec.Vec { return b.s.bDj }

// SetMaskBit / ClearMaskBit update bit i of b_Dj.
func (b *Builder) SetMaskBit(i int)   { b.s.bDj.Set(i) }
func (b *Builder) ClearMaskBit(i int) { b.s.bDj.Clear(i) }

// SetBitsAll ORs every set bit of mask into every stored entry's
// bit-vector in a single arena pass — the §3.2.1 update for K admitted
// queries that do not reference this dimension. One sweep installs all K
// tags. The sweep blasts the bits through the whole arena (free slots
// included; their vectors are unreachable garbage).
// mask must be Words() words wide; an all-zero mask is a no-op.
func (b *Builder) SetBitsAll(mask bitvec.Vec) {
	any := false
	for _, w := range mask {
		if w != 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	b.privatize()
	if b.s.words == 1 {
		m := mask[0]
		for j := range b.s.bits {
			b.s.bits[j] |= m
		}
		return
	}
	w := b.s.words
	for j := 0; j < len(b.s.bits); j += w {
		for k := 0; k < w; k++ {
			b.s.bits[j+k] |= mask[k]
		}
	}
}

// ClearBitAll clears bit i in every stored entry's bit-vector (Algorithm
// 2, query finalization).
func (b *Builder) ClearBitAll(i int) {
	b.privatize()
	w, m := i/64, uint64(1)<<(uint(i)%64)
	for j := w; j < len(b.s.bits); j += b.s.words {
		b.s.bits[j] &^= m
	}
}

// Upsert inserts key with the given row if absent, initializing the new
// entry's bit-vector to the current b_Dj (a fresh entry is transparent to
// every active non-referencing query, §3.2.1). It returns the entry's
// bit-vector for the caller to set the admitting query's bit. The row is
// copied into the arena on insert and ignored when the key exists.
func (b *Builder) Upsert(key int64, row []int64) bitvec.Vec {
	s := b.s
	if key == emptyKey {
		b.privatize()
		s = b.s
		slot := int32(len(s.keys))
		if !s.sent {
			s.sent = true
			s.count++
			s.offs[slot] = b.appendRow(row)
			copy(s.bits[int(slot)*s.words:(int(slot)+1)*s.words], s.bDj)
		}
		return s.Bits(slot)
	}
	// Probe before deciding anything: an upsert of an existing key must
	// not grow the table, and a growing insert should rehash straight
	// from the shared parent arrays instead of privatizing copies that
	// grow would immediately discard. The returned vector is mutated by
	// the caller, so both outcomes privatize (grow counts: it builds
	// fresh arrays).
	h := hash(key) & s.mask
	for s.keys[h] != emptyKey {
		if s.keys[h] == key {
			b.privatize()
			return b.s.Bits(int32(h))
		}
		h = (h + 1) & s.mask
	}
	if (s.count+1)*maxLoadDen > len(s.keys)*maxLoadNum {
		b.grow(2 * len(s.keys))
		s = b.s
		h = hash(key) & s.mask
		for s.keys[h] != emptyKey {
			h = (h + 1) & s.mask
		}
	} else {
		b.privatize()
		s = b.s
	}
	s.keys[h] = key
	s.count++
	s.offs[h] = b.appendRow(row)
	copy(s.bits[int(h)*s.words:(int(h)+1)*s.words], s.bDj)
	return s.Bits(int32(h))
}

func (b *Builder) appendRow(row []int64) int32 {
	off := int32(len(b.s.rows) / b.s.ncols)
	b.s.rows = append(b.s.rows, row...)
	return off
}

// grow rehashes into a key array of newCap slots. Row offsets are stable
// across growth (the row arena is untouched), so only keys, offs, and
// bits move.
func (b *Builder) grow(newCap int) {
	old := b.s
	ns := &Snapshot{
		keys:  make([]int64, newCap),
		offs:  make([]int32, newCap+1),
		bits:  make([]uint64, (newCap+1)*old.words),
		rows:  old.rows,
		mask:  uint64(newCap - 1),
		words: old.words,
		ncols: old.ncols,
		count: old.count,
		sent:  old.sent,
		refs:  old.refs,
		bDj:   old.bDj,
	}
	for i := range ns.keys {
		ns.keys[i] = emptyKey
	}
	for i, k := range old.keys {
		if k == emptyKey {
			continue
		}
		h := hash(k) & ns.mask
		for ns.keys[h] != emptyKey {
			h = (h + 1) & ns.mask
		}
		ns.keys[h] = k
		ns.offs[h] = old.offs[i]
		copy(ns.bits[int(h)*ns.words:(int(h)+1)*ns.words], old.Bits(int32(i)))
	}
	if old.sent {
		os, nslot := int32(len(old.keys)), int32(newCap)
		ns.offs[nslot] = old.offs[os]
		copy(ns.bits[int(nslot)*ns.words:(int(nslot)+1)*ns.words], old.Bits(os))
	}
	b.s = ns
	b.private = true
}

// Retain garbage-collects: it rebuilds the table keeping only entries for
// which keep returns true, compacting the row arena (Algorithm 2's
// removal of dimension tuples selected by no remaining query). Open
// addressing cannot delete in place without tombstones; since removal
// runs off the hot path, a compacting rebuild is both simpler and leaves
// the next snapshot at an ideal load factor.
func (b *Builder) Retain(keep func(bv bitvec.Vec) bool) {
	old := b.s
	live := 0
	oldSlots := make([]int32, 0, old.count)
	for i, k := range old.keys {
		if k == emptyKey {
			continue
		}
		if keep(old.Bits(int32(i))) {
			oldSlots = append(oldSlots, int32(i))
			live++
		}
	}
	keepSent := old.sent && keep(old.Bits(int32(len(old.keys))))
	if keepSent {
		live++
	}
	if live == old.count {
		return // nothing dead: keep the table as is
	}

	capacity := minCapacity
	for capacity*maxLoadNum < live*maxLoadDen {
		capacity *= 2
	}
	ns := newSnapshot(capacity, old.words, old.ncols)
	ns.refs = old.refs
	ns.bDj = old.bDj
	ns.rows = make([]int64, 0, live*old.ncols)
	for _, slot := range oldSlots {
		k := old.keys[slot]
		h := hash(k) & ns.mask
		for ns.keys[h] != emptyKey {
			h = (h + 1) & ns.mask
		}
		ns.keys[h] = k
		ns.count++
		off := int32(len(ns.rows) / ns.ncols)
		ns.rows = append(ns.rows, old.Row(slot)...)
		ns.offs[h] = off
		copy(ns.bits[int(h)*ns.words:(int(h)+1)*ns.words], old.Bits(slot))
	}
	if keepSent {
		os, nslot := int32(len(old.keys)), int32(capacity)
		ns.sent = true
		ns.count++
		off := int32(len(ns.rows) / ns.ncols)
		ns.rows = append(ns.rows, old.Row(os)...)
		ns.offs[nslot] = off
		copy(ns.bits[int(nslot)*ns.words:(int(nslot)+1)*ns.words], old.Bits(os))
	}
	b.s = ns
	b.private = true
}
