// Package agg implements the aggregation operators that terminate both
// the CJOIN pipeline (one per registered query, fed by the Distributor)
// and conventional star-query plans: hash-based and sort-based GROUP BY
// with SUM, COUNT, MIN, MAX and AVG.
package agg

import (
	"encoding/binary"
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

// Aggregator consumes joined rows and produces grouped results.
type Aggregator interface {
	// Add folds one joined row into the aggregate state.
	Add(j *expr.Joined)
	// Results returns the groups sorted by group key. It may be called
	// once, after the last Add.
	Results() []Result
}

type bucket struct {
	group  []int64
	ints   []int64
	counts []int64
}

// Hash is a hash-based aggregator.
type Hash struct {
	specs   []Spec
	groupBy []expr.Node
	m       map[string]*bucket
	keyBuf  []byte
	valBuf  []int64
	rows    int64
}

// NewHash returns a hash aggregator for the given output specs and
// grouping expressions (which may be empty for a global aggregate).
func NewHash(specs []Spec, groupBy []expr.Node) *Hash {
	return &Hash{
		specs:   specs,
		groupBy: groupBy,
		m:       make(map[string]*bucket),
		keyBuf:  make([]byte, 8*len(groupBy)),
		valBuf:  make([]int64, len(groupBy)),
	}
}

// Add implements Aggregator.
func (h *Hash) Add(j *expr.Joined) {
	h.rows++
	for i, g := range h.groupBy {
		v := g.Eval(j)
		h.valBuf[i] = v
		binary.LittleEndian.PutUint64(h.keyBuf[8*i:], uint64(v))
	}
	b, ok := h.m[string(h.keyBuf)]
	if !ok {
		b = &bucket{
			group:  append([]int64(nil), h.valBuf...),
			ints:   make([]int64, len(h.specs)),
			counts: make([]int64, len(h.specs)),
		}
		h.m[string(h.keyBuf)] = b
	}
	fold(b, h.specs, j, ok)
}

func fold(b *bucket, specs []Spec, j *expr.Joined, existed bool) {
	for i, s := range specs {
		var v int64
		if s.Arg != nil {
			v = s.Arg.Eval(j)
		}
		switch s.Fn {
		case Sum, Avg:
			b.ints[i] += v
		case Count:
			b.ints[i]++
		case Min:
			if !existed || v < b.ints[i] {
				b.ints[i] = v
			}
		case Max:
			if !existed || v > b.ints[i] {
				b.ints[i] = v
			}
		}
		b.counts[i]++
	}
}

// Rows returns the number of input rows consumed.
func (h *Hash) Rows() int64 { return h.rows }

// Results implements Aggregator.
func (h *Hash) Results() []Result {
	if len(h.m) == 0 {
		return nil
	}
	out := make([]Result, 0, len(h.m))
	for _, b := range h.m {
		out = append(out, Result{Group: b.group, Ints: b.ints, Counts: b.counts})
	}
	sortResults(out)
	return out
}

// Sorted is a sort-based aggregator: it buffers (group, arg) rows and
// aggregates after sorting. Results are identical to Hash. The pipeline
// always aggregates with Hash; Sorted stays because the reference
// executor (internal/ref) is built on it, so the oracle shares no
// aggregation state machine with the operator it judges.
type Sorted struct {
	specs   []Spec
	groupBy []expr.Node
	rows    [][]int64 // group values followed by arg values
}

// NewSorted returns a sort-based aggregator.
func NewSorted(specs []Spec, groupBy []expr.Node) *Sorted {
	return &Sorted{specs: specs, groupBy: groupBy}
}

// Add implements Aggregator.
func (s *Sorted) Add(j *expr.Joined) {
	row := make([]int64, len(s.groupBy)+len(s.specs))
	for i, g := range s.groupBy {
		row[i] = g.Eval(j)
	}
	for i, sp := range s.specs {
		if sp.Arg != nil {
			row[len(s.groupBy)+i] = sp.Arg.Eval(j)
		}
	}
	s.rows = append(s.rows, row)
}

// Results implements Aggregator.
func (s *Sorted) Results() []Result {
	ng := len(s.groupBy)
	slices.SortFunc(s.rows, func(a, b []int64) int {
		return slices.Compare(a[:ng], b[:ng])
	})
	var out []Result
	var cur *bucket
	for _, row := range s.rows {
		if cur == nil || !slices.Equal(cur.group, row[:ng]) {
			if cur != nil {
				out = append(out, Result{Group: cur.group, Ints: cur.ints, Counts: cur.counts})
			}
			cur = &bucket{
				group:  append([]int64(nil), row[:ng]...),
				ints:   make([]int64, len(s.specs)),
				counts: make([]int64, len(s.specs)),
			}
			s.foldRow(cur, row, false)
			continue
		}
		s.foldRow(cur, row, true)
	}
	if cur != nil {
		out = append(out, Result{Group: cur.group, Ints: cur.ints, Counts: cur.counts})
	}
	return out
}

func (s *Sorted) foldRow(b *bucket, row []int64, existed bool) {
	ng := len(s.groupBy)
	for i, sp := range s.specs {
		v := row[ng+i]
		switch sp.Fn {
		case Sum, Avg:
			b.ints[i] += v
		case Count:
			b.ints[i]++
		case Min:
			if !existed || v < b.ints[i] {
				b.ints[i] = v
			}
		case Max:
			if !existed || v > b.ints[i] {
				b.ints[i] = v
			}
		}
		b.counts[i]++
	}
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
// The merge is one linear k-way pass over the already sorted partials.
// The partials are never modified, but a group present in only one of
// them is passed through without copying, so the output shares that
// group's slices with its partial; only groups that combine are copied.
func Merge(specs []Spec, parts ...[]Result) []Result {
	longest := 0
	for _, p := range parts {
		longest = max(longest, len(p))
	}
	if longest == 0 {
		return nil
	}
	out := make([]Result, 0, longest)
	pos := make([]int, len(parts)) // cursor into each partial
	owned := false                 // out's last group is Merge's own copy
	for {
		// The next group is the smallest head; ties go to the earliest
		// partial, and the equal heads follow in the next rounds.
		next := -1
		for i, p := range parts {
			if pos[i] < len(p) && (next < 0 || slices.Compare(p[pos[i]].Group, parts[next][pos[next]].Group) < 0) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		r := parts[next][pos[next]]
		pos[next]++
		if len(out) == 0 || !slices.Equal(out[len(out)-1].Group, r.Group) {
			out = append(out, r)
			owned = false
			continue
		}
		cur := &out[len(out)-1]
		if !owned {
			cur.Ints, cur.Counts = slices.Clone(cur.Ints), slices.Clone(cur.Counts)
			owned = true
		}
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
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int { return slices.Compare(a.Group, b.Group) })
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
