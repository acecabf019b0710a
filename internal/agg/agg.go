// Package agg implements the aggregation operator that terminates both
// the CJOIN pipeline (one per registered query, fed by the Distributor)
// and conventional star-query plans: hash-based GROUP BY with SUM,
// COUNT, MIN, MAX and AVG, and the merge of per-shard partial results.
package agg

import (
	"fmt"
	"slices"
	"strings"

	"cjoin/internal/expr"
)

// Func enumerates the supported SQL aggregate functions.
type Func int

// Aggregate functions.
const (
	Sum Func = iota
	Count
	Min
	Max
	Avg
)

var funcNames = [...]string{"SUM", "COUNT", "MIN", "MAX", "AVG"}

func (f Func) String() string { return funcNames[f] }

// ParseFunc maps an upper-case SQL function name to a Func.
func ParseFunc(name string) (Func, bool) {
	for i, n := range funcNames {
		if n == name {
			return Func(i), true
		}
	}
	return 0, false
}

// Spec describes one aggregate output column. Arg is nil for COUNT(*).
type Spec struct {
	Fn   Func
	Arg  expr.Node
	Name string
}

func (s Spec) String() string {
	if s.Arg == nil {
		return s.Fn.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", s.Fn, s.Arg)
}

// Result is one output group. Ints holds, per spec, the SUM/MIN/MAX value,
// the COUNT, or the running sum for AVG; Counts holds the per-spec row
// count that AVG divides by.
type Result struct {
	Group  []int64
	Ints   []int64
	Counts []int64
}

// Value returns the final value of aggregate column i under spec.
func (r Result) Value(i int, spec Spec) float64 {
	if spec.Fn == Avg {
		if r.Counts[i] == 0 {
			return 0
		}
		return float64(r.Ints[i]) / float64(r.Counts[i])
	}
	return float64(r.Ints[i])
}

// minTable is the table length a Hash starts with, at its first group.
const minTable = 16

// Hash is a hash-based aggregator. Its state is three flat arenas —
// keys (ng words per group), ints and counts (ns words per group, one
// per spec) — indexed by group number, beside an open-addressed table of
// group number + 1 (0 = empty) with linear probing. The table length is
// a power of two and doubles at load 3/4; the arenas are grown to the
// new table's group limit at the same time, so adding a group between
// doublings allocates nothing. With no GROUP BY every row has the empty
// key, which is the one group.
type Hash struct {
	specs   []Spec
	groupBy []expr.Node
	ng, ns  int
	n       int // groups
	limit   int // groups the table holds before it doubles
	keys    []int64
	ints    []int64
	counts  []int64
	table   []int32
	key     []int64 // the current row's group key
}

// NewHash returns a hash aggregator for the given output specs and
// grouping expressions (which may be empty for a global aggregate).
func NewHash(specs []Spec, groupBy []expr.Node) *Hash {
	return &Hash{
		specs:   specs,
		groupBy: groupBy,
		ng:      len(groupBy),
		ns:      len(specs),
		key:     make([]int64, len(groupBy)),
	}
}

// Add folds one joined row into its group.
func (h *Hash) Add(j *expr.Joined) {
	for i, g := range h.groupBy {
		h.key[i] = g.Eval(j)
	}
	g, existed := h.group(h.key)
	h.fold(g, j, existed)
}

// group returns the number of key's group, appending a new one if key
// has none yet. Only a new group can make the table double, so a row
// that hits an existing group never allocates.
func (h *Hash) group(key []int64) (g int, existed bool) {
	if h.table == nil {
		h.grow()
	}
	ng := h.ng
	mask := len(h.table) - 1
	i := int(hashKey(key)) & mask
	for e := h.table[i]; e != 0; e = h.table[i] {
		g = int(e - 1)
		if slices.Equal(h.keys[g*ng:g*ng+ng], key) {
			return g, true
		}
		i = (i + 1) & mask
	}
	if h.n == h.limit {
		h.grow()
		i = h.free(key)
	}
	g = h.n
	h.n++
	h.table[i] = int32(h.n)
	// grow reserved the room, so these reslices stay within capacity;
	// what the room holds is unspecified, hence the clears.
	k, s := g*ng, g*h.ns
	h.keys = h.keys[:k+ng]
	copy(h.keys[k:], key)
	h.ints = h.ints[:s+h.ns]
	h.counts = h.counts[:s+h.ns]
	clear(h.ints[s:])
	clear(h.counts[s:])
	return g, false
}

// grow doubles the table, re-inserts every group, and reserves arena
// room for every group the new table holds.
func (h *Hash) grow() {
	size := max(2*len(h.table), minTable)
	h.table = make([]int32, size)
	ng := h.ng
	for g := range h.n {
		h.table[h.free(h.keys[g*ng:g*ng+ng])] = int32(g + 1)
	}
	h.limit = size / 4 * 3
	room := h.limit - h.n
	h.keys = slices.Grow(h.keys, room*ng)
	h.ints = slices.Grow(h.ints, room*h.ns)
	h.counts = slices.Grow(h.counts, room*h.ns)
}

// free returns the first empty slot on key's probe sequence.
func (h *Hash) free(key []int64) int {
	mask := len(h.table) - 1
	i := int(hashKey(key)) & mask
	for h.table[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// hashKey mixes a group key into 64 bits: each word is folded in by a
// multiply-xorshift round and the sum finished with splitmix64's
// avalanche, so keys that differ only in their high bits still spread
// over the table's low index bits.
func hashKey(key []int64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, k := range key {
		x = (x ^ uint64(k)) * 0xbf58476d1ce4e5b9
		x ^= x >> 32
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (h *Hash) fold(g int, j *expr.Joined, existed bool) {
	ns := h.ns
	ints := h.ints[g*ns : g*ns+ns]
	counts := h.counts[g*ns : g*ns+ns]
	for i, s := range h.specs {
		var v int64
		if s.Arg != nil {
			v = s.Arg.Eval(j)
		}
		switch s.Fn {
		case Sum, Avg:
			ints[i] += v
		case Count:
			ints[i]++
		case Min:
			if !existed || v < ints[i] {
				ints[i] = v
			}
		case Max:
			if !existed || v > ints[i] {
				ints[i] = v
			}
		}
		counts[i]++
	}
}

// Results returns the groups sorted by group key, nil if there are
// none. It is called once, after the last Add: it sorts a permutation of
// group numbers, copies the groups in key order into a new result set,
// and drops the Hash's own state.
func (h *Hash) Results() []Result {
	n, ng, ns := h.n, h.ng, h.ns
	if n == 0 {
		return nil
	}
	keys := h.keys
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		x, y := int(a)*ng, int(b)*ng
		return slices.Compare(keys[x:x+ng], keys[y:y+ng])
	})
	out := newResults(n, ng, ns)
	for o, g := range perm {
		copy(out[o].Group, keys[int(g)*ng:])
		copy(out[o].Ints, h.ints[int(g)*ns:])
		copy(out[o].Counts, h.counts[int(g)*ns:])
	}
	h.n, h.limit = 0, 0
	h.keys, h.ints, h.counts, h.table = nil, nil, nil, nil
	return out
}

// newResults allocates a zeroed set of n results with ng group columns
// and ns aggregates: three exact-size arenas that every Result's slices
// are cut from, capacity-clipped so that appending to one result cannot
// write into the next.
func newResults(n, ng, ns int) []Result {
	out := make([]Result, n)
	group := make([]int64, n*ng)
	ints := make([]int64, n*ns)
	counts := make([]int64, n*ns)
	for o := range out {
		k, s := o*ng, o*ns
		out[o] = Result{Group: group[k : k+ng : k+ng], Ints: ints[s : s+ns : s+ns], Counts: counts[s : s+ns : s+ns]}
	}
	return out
}

// Merge folds partial result sets — each sorted by group key, as
// Results produces them — into one result set sorted by group key. It is
// the scatter/gather half of sharded execution: each fact-partitioned
// pipeline aggregates its share of the scan, and Merge combines the
// partial states associatively, so the merged output is exactly what a
// single pipeline over the whole fact table would have produced.
//
// Per-spec combination: SUM and COUNT partials add; AVG is carried as
// (sum, count) in Result.Ints/Counts and both add, so the final division
// is exact; MIN/MAX take the extremum. Counts always add, since every
// partial bucket counted its own input rows. Integer addition over int64
// is associative and commutative, so merge order cannot change results.
//
// Exactly one partial is returned as it is. Otherwise a counting pass
// over the sorted partials sizes the output, and one linear k-way pass
// writes every group into a new result set laid out as Results lays
// one out. The partials are never modified and no output slice
// aliases one, so they can be dropped as soon as Merge returns.
func Merge(specs []Spec, parts ...[]Result) []Result {
	if len(parts) == 1 {
		return parts[0]
	}
	pos := make([]int, len(parts)) // cursor into each partial
	n, ng := 0, 0
	var last []int64
	for p := nextHead(parts, pos); p >= 0; p = nextHead(parts, pos) {
		g := parts[p][pos[p]].Group
		pos[p]++
		if n == 0 || !slices.Equal(last, g) {
			n, ng, last = n+1, len(g), g
		}
	}
	if n == 0 {
		return nil
	}
	out := newResults(n, ng, len(specs))
	o := -1 // the output group being written
	clear(pos)
	for p := nextHead(parts, pos); p >= 0; p = nextHead(parts, pos) {
		r := parts[p][pos[p]]
		pos[p]++
		if o < 0 || !slices.Equal(out[o].Group, r.Group) {
			o++
			copy(out[o].Group, r.Group)
			copy(out[o].Ints, r.Ints)
			copy(out[o].Counts, r.Counts)
			continue
		}
		cur := out[o]
		for i, s := range specs {
			switch s.Fn {
			case Sum, Count, Avg:
				cur.Ints[i] += r.Ints[i]
			case Min:
				cur.Ints[i] = min(cur.Ints[i], r.Ints[i])
			case Max:
				cur.Ints[i] = max(cur.Ints[i], r.Ints[i])
			}
			cur.Counts[i] += r.Counts[i]
		}
	}
	return out
}

// nextHead returns the partial whose head group is the smallest, or -1
// once every partial is consumed. Ties go to the earliest partial; the
// equal heads follow in the next calls.
func nextHead(parts [][]Result, pos []int) int {
	next := -1
	for i, p := range parts {
		if pos[i] < len(p) && (next < 0 || slices.Compare(p[pos[i]].Group, parts[next][pos[next]].Group) < 0) {
			next = i
		}
	}
	return next
}

// FormatResults renders results as a compact debug table.
func FormatResults(rs []Result, specs []Spec) string {
	var sb strings.Builder
	for _, r := range rs {
		for _, g := range r.Group {
			fmt.Fprintf(&sb, "%d\t", g)
		}
		for i := range specs {
			fmt.Fprintf(&sb, "%g\t", r.Value(i, specs[i]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
