package cjoin

import (
	"fmt"

	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/shard"
)

// FactRow is one fact tuple delivered by a galaxy join, with dictionary
// decoding by column name. It is only valid during the emit callback
// unless stated otherwise.
type FactRow struct {
	w   *Warehouse
	row []int64
}

// Col returns the named fact column's value.
func (r FactRow) Col(name string) (Value, error) {
	t := r.w.fact.tab
	i := t.ColIndex(name)
	if i < 0 {
		return Value{}, fmt.Errorf("cjoin: unknown fact column %q", name)
	}
	if d := t.Dicts[i]; d != nil {
		if s, ok := d.Decode(r.row[i]); ok {
			return Value{isStr: true, s: s}, nil
		}
	}
	return Value{i: r.row[i]}, nil
}

// GalaxyJoin evaluates a galaxy-schema query (§5 of the paper): two star
// sub-queries joined on a fact-to-fact equi-join pivot. Each side's star
// portion is evaluated by the CJOIN pipeline (and therefore shared with
// all concurrent star queries); the pivot join runs build/probe on the
// star results. It runs at any PipelineOptions.Shards. emit is called
// once per joined pair of fact tuples, one call at a time; the second
// argument aliases pipeline buffers and must not be retained.
func (p *Pipeline) GalaxyJoin(sqlA, sqlB, pivotA, pivotB string, emit func(a, b FactRow)) error {
	star, err := p.w.starSchema()
	if err != nil {
		return err
	}
	colA := star.Fact.ColIndex(pivotA)
	colB := star.Fact.ColIndex(pivotB)
	if colA < 0 || colB < 0 {
		return fmt.Errorf("cjoin: unknown pivot column %q or %q", pivotA, pivotB)
	}
	qa, err := query.ParseBind(sqlA, star)
	if err != nil {
		return err
	}
	qb, err := query.ParseBind(sqlB, star)
	if err != nil {
		return err
	}
	snap := p.w.Begin()
	qa.Snapshot = snap
	qb.Snapshot = snap
	return shard.ExecuteGalaxy(p.p, p.p, qa, qb, colA, colB, func(fa, fb *expr.Joined) {
		emit(FactRow{w: p.w, row: fa.Fact}, FactRow{w: p.w, row: fb.Fact})
	})
}
