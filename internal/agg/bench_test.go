package agg

import (
	"testing"

	"cjoin/internal/expr"
)

// BenchmarkHashAdd measures the Distributor-side cost of folding one
// routed tuple into a query's aggregation operator.
func BenchmarkHashAdd(b *testing.B) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}, {Fn: Count}}
	h := NewHash(specs, []expr.Node{col(0)})
	j := expr.Joined{Fact: []int64{3, 42}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Fact[0] = int64(i % 64) // 64 groups
		h.Add(&j)
	}
}

func BenchmarkHashAddWideGroup(b *testing.B) {
	specs := []Spec{{Fn: Sum, Arg: col(3)}}
	h := NewHash(specs, []expr.Node{col(0), col(1), col(2)})
	j := expr.Joined{Fact: []int64{0, 0, 0, 7}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Fact[0] = int64(i % 8)
		j.Fact[1] = int64(i % 4)
		j.Fact[2] = int64(i % 2)
		h.Add(&j)
	}
}

// BenchmarkMerge measures the gather-side cost of combining two shards'
// partials of 10^4 groups each. Page-strided shards see the same groups,
// so nine in ten are present in both.
func BenchmarkMerge(b *testing.B) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}, {Fn: Count}}
	part := func(from, n int) []Result {
		rs := make([]Result, n)
		for i := range rs {
			g := int64(from + i)
			rs[i] = Result{Group: []int64{g / 100, g % 100, 7}, Ints: []int64{g, 1}, Counts: []int64{1, 1}}
		}
		return rs
	}
	p0, p1 := part(0, 10000), part(1000, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := Merge(specs, p0, p1); len(got) != 11000 {
			b.Fatalf("merged %d groups", len(got))
		}
	}
}
