// Package bitvec provides fixed-width bit vectors and a lock-free bitmap
// slot allocator.
//
// Bit vectors are the core data structure of the CJOIN operator: every fact
// tuple and every stored dimension tuple carries one bit per registered
// query (§3.1 of the paper). The allocator reproduces the paper's
// "specialized allocator [that] reserves and releases tuples using bitmap
// operations" (§4); it is also used to recycle query identifiers within
// [1, maxConc] (§3.3).
package bitvec

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a fixed-width bit vector. The width is fixed at allocation time;
// all binary operations require operands of equal width.
type Vec []uint64

// Words returns the number of 64-bit words needed to hold nbits bits.
func Words(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return (nbits + wordBits - 1) / wordBits
}

// New returns a zeroed vector wide enough to hold nbits bits.
func New(nbits int) Vec {
	return make(Vec, Words(nbits))
}

// Set sets bit i to 1.
func (v Vec) Set(i int) { v[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear sets bit i to 0.
func (v Vec) Clear(i int) { v[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool { return v[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 }

// The binary operations below are the inner loop of every Filter probe
// when maxConc > 64 (the single-word fast path covers <= 64). The write
// ops (And, AndNot, Or) must touch every word, so their bodies walk
// unrolled 4-word blocks with a scalar tail — at 256 bits (4 words) the
// block is the whole vector — while staying inside the compiler's
// inlining budget so the probe loop gets straight-line code with no call
// per tuple. The predicates keep simple per-word loops on purpose: their
// early exit usually triggers on word 0 in the Filter, which beats
// unrolling (measured on BenchmarkFilterProbe/mc=256).

// And replaces v with v AND o.
func (v Vec) And(o Vec) {
	n := len(v)
	o = o[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v[i] &= o[i]
		v[i+1] &= o[i+1]
		v[i+2] &= o[i+2]
		v[i+3] &= o[i+3]
	}
	for ; i < n; i++ {
		v[i] &= o[i]
	}
}

// AndNot replaces v with v AND NOT o.
func (v Vec) AndNot(o Vec) {
	n := len(v)
	o = o[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v[i] &^= o[i]
		v[i+1] &^= o[i+1]
		v[i+2] &^= o[i+2]
		v[i+3] &^= o[i+3]
	}
	for ; i < n; i++ {
		v[i] &^= o[i]
	}
}

// Or replaces v with v OR o.
func (v Vec) Or(o Vec) {
	n := len(v)
	o = o[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v[i] |= o[i]
		v[i+1] |= o[i+1]
		v[i+2] |= o[i+2]
		v[i+3] |= o[i+3]
	}
	for ; i < n; i++ {
		v[i] |= o[i]
	}
}

// AndIsZero reports whether (v AND o) == 0 without modifying v. Unlike
// the write ops above it is deliberately not unrolled: in the Filter the
// first word usually decides, so the early exit is worth more than
// instruction-level parallelism.
func (v Vec) AndIsZero(o Vec) bool {
	for i := range v {
		if v[i]&o[i] != 0 {
			return false
		}
	}
	return true
}

// AndNotIsZero reports whether (v AND NOT o) == 0 without modifying v.
// This implements the probe-skip test of §3.2.2: if the fact tuple is only
// relevant to queries that do not reference dimension D_j (whose bits are
// set in b_Dj), the hash probe can be skipped entirely.
// Like AndIsZero it keeps the per-word early exit instead of unrolling:
// a tuple that fails the skip test usually fails in word 0.
func (v Vec) AndNotIsZero(o Vec) bool {
	for i := range v {
		if v[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether every bit is 0. Early exit, not unrolled: a
// surviving tuple's first word is usually nonzero.
func (v Vec) IsZero() bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears all bits.
func (v Vec) Reset() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets the first nbits bits to 1 and clears the rest.
func (v Vec) Fill(nbits int) {
	v.Reset()
	full := nbits / wordBits
	for i := 0; i < full; i++ {
		v[i] = ^uint64(0)
	}
	if rem := nbits % wordBits; rem != 0 && full < len(v) {
		v[full] = (1 << uint(rem)) - 1
	}
}

// Uint64 returns the vector's first word — the entire vector when its
// width is at most 64 bits. This is the CJOIN Filter's single-word fast
// path (maxConc <= 64): with the whole bit-vector in one register, the
// probe-skip test (§3.2.2), the AND, and the zero check are plain
// integer operations with no slice iteration.
func (v Vec) Uint64() uint64 { return v[0] }

// SetUint64 overwrites the vector's first word — the store half of the
// single-word fast path.
func (v Vec) SetUint64(w uint64) { v[0] = w }

// CopyFrom overwrites v with the contents of o.
func (v Vec) CopyFrom(o Vec) { copy(v, o) }

// Clone returns a fresh copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Count returns the number of set bits.
func (v Vec) Count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether v and o have identical contents.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after from,
// or -1 if there is none.
func (v Vec) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	w := from / wordBits
	if w >= len(v) {
		return -1
	}
	cur := v[w] >> (uint(from) % wordBits)
	if cur != 0 {
		return from + bits.TrailingZeros64(cur)
	}
	for w++; w < len(v); w++ {
		if v[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(v[w])
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops.
func (v Vec) ForEach(fn func(i int) bool) {
	for w, word := range v {
		for word != 0 {
			i := w*wordBits + bits.TrailingZeros64(word)
			if !fn(i) {
				return
			}
			word &= word - 1
		}
	}
}

// String renders the vector as a little-endian bit string ("1011…"),
// bit 0 first, for debugging.
func (v Vec) String() string {
	var b strings.Builder
	for i := 0; i < len(v)*wordBits; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
