package ref

import (
	"slices"

	"cjoin/internal/agg"
	"cjoin/internal/expr"
)

// Sorted is a sort-based aggregator: it buffers (group, arg) rows and
// aggregates after sorting. It is the oracle's own aggregator, so the
// reference shares no aggregation state machine with agg.Hash, the
// operator it judges; its results must equal Hash's exactly.
type Sorted struct {
	specs   []agg.Spec
	groupBy []expr.Node
	rows    [][]int64 // group values followed by arg values
}

// NewSorted returns a sort-based aggregator.
func NewSorted(specs []agg.Spec, groupBy []expr.Node) *Sorted {
	return &Sorted{specs: specs, groupBy: groupBy}
}

// Add buffers one joined row.
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

type bucket struct {
	group  []int64
	ints   []int64
	counts []int64
}

// Results sorts the buffered rows by group key and aggregates each run
// of equal keys into one result.
func (s *Sorted) Results() []agg.Result {
	ng := len(s.groupBy)
	slices.SortFunc(s.rows, func(a, b []int64) int {
		return slices.Compare(a[:ng], b[:ng])
	})
	var out []agg.Result
	var cur *bucket
	for _, row := range s.rows {
		if cur == nil || !slices.Equal(cur.group, row[:ng]) {
			if cur != nil {
				out = append(out, agg.Result{Group: cur.group, Ints: cur.ints, Counts: cur.counts})
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
		out = append(out, agg.Result{Group: cur.group, Ints: cur.ints, Counts: cur.counts})
	}
	return out
}

func (s *Sorted) foldRow(b *bucket, row []int64, existed bool) {
	ng := len(s.groupBy)
	for i, sp := range s.specs {
		v := row[ng+i]
		switch sp.Fn {
		case agg.Sum, agg.Avg:
			b.ints[i] += v
		case agg.Count:
			b.ints[i]++
		case agg.Min:
			if !existed || v < b.ints[i] {
				b.ints[i] = v
			}
		case agg.Max:
			if !existed || v > b.ints[i] {
				b.ints[i] = v
			}
		}
		b.counts[i]++
	}
}
