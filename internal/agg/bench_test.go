package agg_test

import (
	"math/rand"
	"testing"

	"cjoin/internal/agg"
	"cjoin/internal/expr"
)

// The wide fixture: 10^4 distinct groups over three key columns, in
// random order, each row carrying one SUM argument.
var (
	wideSpecs   = []agg.Spec{{Fn: agg.Sum, Arg: col(3)}, {Fn: agg.Count}}
	wideGroupBy = cols(3)
)

func wideRows(n int) [][]int64 {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, n)
	for i, p := range rng.Perm(n) {
		rows[i] = []int64{int64(p / 400), int64(p / 20 % 20), int64(p % 20), int64(i)}
	}
	return rows
}

func wideHash(rows [][]int64) *agg.Hash {
	h := agg.NewHash(wideSpecs, wideGroupBy)
	var j expr.Joined // one view for every row, as the Distributor has
	for _, r := range rows {
		j.Fact = r
		h.Add(&j)
	}
	return h
}

// mergeParts is two shards' partials of 10^4 groups each. Page-strided
// shards see the same groups, so nine in ten are present in both.
func mergeParts() (specs []agg.Spec, p0, p1 []agg.Result) {
	part := func(from, n int) []agg.Result {
		rs := make([]agg.Result, n)
		for i := range rs {
			g := int64(from + i)
			rs[i] = agg.Result{Group: []int64{g / 100, g % 100, 7}, Ints: []int64{g, 1}, Counts: []int64{1, 1}}
		}
		return rs
	}
	return []agg.Spec{{Fn: agg.Sum, Arg: col(1)}, {Fn: agg.Count}}, part(0, 10000), part(1000, 10000)
}

// BenchmarkHashAdd measures the Distributor-side cost of folding one
// routed tuple into a query's aggregation operator whose group exists.
func BenchmarkHashAdd(b *testing.B) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(1)}, {Fn: agg.Count}}
	h := agg.NewHash(specs, []expr.Node{col(0)})
	j := expr.Joined{Fact: []int64{3, 42}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Fact[0] = int64(i % 64) // 64 groups
		h.Add(&j)
	}
}

func BenchmarkHashAddWideGroup(b *testing.B) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(3)}}
	h := agg.NewHash(specs, []expr.Node{col(0), col(1), col(2)})
	j := expr.Joined{Fact: []int64{0, 0, 0, 7}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Fact[0] = int64(i % 8)
		j.Fact[1] = int64(i % 4)
		j.Fact[2] = int64(i % 2)
		h.Add(&j)
	}
}

// BenchmarkHashAddNewGroups measures the miss path: one op is a fresh
// Hash taking 10^4 rows that each open a new three-column group.
func BenchmarkHashAddNewGroups(b *testing.B) {
	rows := wideRows(10000)
	b.ReportAllocs()
	for b.Loop() {
		wideHash(rows)
	}
}

// BenchmarkHashResults measures finalizing a query: sorting and laying
// out 10^4 three-column groups.
func BenchmarkHashResults(b *testing.B) {
	rows := wideRows(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := wideHash(rows)
		b.StartTimer()
		if got := h.Results(); len(got) != 10000 {
			b.Fatalf("%d groups", len(got))
		}
	}
}

// BenchmarkMerge measures the gather-side cost of combining two shards'
// partials of 10^4 groups each.
func BenchmarkMerge(b *testing.B) {
	specs, p0, p1 := mergeParts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := agg.Merge(specs, p0, p1); len(got) != 11000 {
			b.Fatalf("merged %d groups", len(got))
		}
	}
}

// The allocation guards: a new group, a finalized result set and a
// merge each cost a fixed handful of allocations, not some per group.

func TestHashAddAllocs(t *testing.T) {
	rows := wideRows(10000)
	if got := testing.AllocsPerRun(5, func() { wideHash(rows) }); got > 100 {
		t.Fatalf("Add of 10^4 new groups: %v allocations, want <= 100", got)
	}
}

func TestHashAddExistingGroupAllocs(t *testing.T) {
	rows := wideRows(10000)
	h := wideHash(rows)
	var j expr.Joined
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		j.Fact = rows[i%len(rows)]
		h.Add(&j)
		i++
	}); got != 0 {
		t.Fatalf("Add to an existing group: %v allocations, want 0", got)
	}
}

// TestHashAddHitAtLimitAllocs: with the table holding exactly as many
// groups as it may before doubling, a row that hits one of them must not
// double it — only a new group does. AllocsPerRun's warm-up call would
// absorb a single doubling, so the table length is checked as well.
func TestHashAddHitAtLimitAllocs(t *testing.T) {
	for _, n := range []int{agg.MinTable / 4 * 3, agg.MinTable * 2 / 4 * 3} {
		rows := wideRows(n)
		h := wideHash(rows)
		tl := h.TableLen()
		var j expr.Joined
		i := 0
		if got := testing.AllocsPerRun(100, func() {
			j.Fact = rows[i%len(rows)]
			h.Add(&j)
			i++
		}); got != 0 {
			t.Fatalf("%d groups: Add to an existing group: %v allocations, want 0", n, got)
		}
		if h.TableLen() != tl {
			t.Fatalf("%d groups: a hit grew the table from %d to %d", n, tl, h.TableLen())
		}
	}
}

func TestHashResultsAllocs(t *testing.T) {
	const runs = 3
	rows := wideRows(10000)
	hs := make([]*agg.Hash, runs+1) // AllocsPerRun calls once more to warm up
	for i := range hs {
		hs[i] = wideHash(rows)
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		hs[i].Results()
		i++
	}); got > 5 {
		t.Fatalf("Results over 10^4 groups: %v allocations, want <= 5", got)
	}
}

func TestMergeAllocs(t *testing.T) {
	specs, p0, p1 := mergeParts()
	if got := testing.AllocsPerRun(10, func() { agg.Merge(specs, p0, p1) }); got > 5 {
		t.Fatalf("Merge of two 10^4-group partials: %v allocations, want <= 5", got)
	}
}
