// Package ref is a deliberately naive in-memory reference executor for
// star queries. It exists only as ground truth for equivalence tests of
// the conventional engine and the CJOIN operator: it materializes every
// table, applies predicates row by row, performs nested-loop index joins,
// and aggregates. Clarity over speed, no shared state, no concurrency.
package ref

import (
	"cjoin/internal/agg"
	"cjoin/internal/engine"
	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/storage"
	"cjoin/internal/txn"
)

// Execute runs q against the star schema and returns sorted results.
func Execute(q *query.Bound) ([]agg.Result, error) {
	star := q.Schema

	dims := make([]map[int64][]int64, len(star.Dims))
	for i, used := range q.DimRefs {
		if !used {
			continue
		}
		rows, err := readAll(star.Dims[i].Heap)
		if err != nil {
			return nil, err
		}
		m := make(map[int64][]int64)
		for _, row := range rows {
			if expr.EvalRow(q.DimPreds[i], row) {
				m[row[star.KeyCol[i]]] = row
			}
		}
		dims[i] = m
	}

	aggr := NewSorted(q.Aggs, q.GroupBy)
	hasMVCC := star.Fact.Hidden >= 2
	for _, part := range star.Partitions() {
		facts, err := readAll(part.Heap)
		if err != nil {
			return nil, err
		}
	rows:
		for _, row := range facts {
			if hasMVCC && !txn.Visible(row[0], row[1], q.Snapshot) {
				continue
			}
			j := expr.Joined{Fact: row, Dims: make([][]int64, len(star.Dims))}
			if q.FactPred.Eval(&j) == 0 {
				continue
			}
			for d, m := range dims {
				if m == nil {
					continue
				}
				dimRow, ok := m[row[star.FKCol[d]]]
				if !ok {
					continue rows
				}
				j.Dims[d] = dimRow
			}
			aggr.Add(&j)
		}
	}
	results := aggr.Results()
	engine.SortResults(results, q.OrderBy)
	return q.ApplyLimit(results), nil
}

func readAll(h *storage.HeapFile) ([][]int64, error) {
	var out [][]int64
	s := storage.NewScanner(h)
	for row, ok := s.Next(); ok; row, ok = s.Next() {
		cp := make([]int64, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	return out, s.Err()
}

// ResultsEqual reports whether two result sets are identical in group
// keys, aggregate values and order.
func ResultsEqual(a, b []agg.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !int64sEqual(a[i].Group, b[i].Group) || !int64sEqual(a[i].Ints, b[i].Ints) || !int64sEqual(a[i].Counts, b[i].Counts) {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
