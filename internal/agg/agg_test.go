package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cjoin/internal/expr"
)

func col(i int) expr.Node { return expr.Col{Slot: 0, Idx: i, Name: "c"} }

func addRows(a Aggregator, rows [][]int64) {
	for _, r := range rows {
		j := expr.Joined{Fact: r}
		a.Add(&j)
	}
}

func TestHashAllFunctions(t *testing.T) {
	specs := []Spec{
		{Fn: Sum, Arg: col(1)},
		{Fn: Count},
		{Fn: Min, Arg: col(1)},
		{Fn: Max, Arg: col(1)},
		{Fn: Avg, Arg: col(1)},
	}
	h := NewHash(specs, []expr.Node{col(0)})
	addRows(h, [][]int64{{1, 10}, {1, 20}, {2, -5}, {1, 30}, {2, 5}})
	rs := h.Results()
	if len(rs) != 2 {
		t.Fatalf("groups %d", len(rs))
	}
	g1 := rs[0]
	if g1.Group[0] != 1 {
		t.Fatalf("group order: %v", rs)
	}
	if g1.Ints[0] != 60 || g1.Ints[1] != 3 || g1.Ints[2] != 10 || g1.Ints[3] != 30 {
		t.Fatalf("group 1 aggs %v", g1.Ints)
	}
	if got := g1.Value(4, specs[4]); got != 20 {
		t.Fatalf("avg %g", got)
	}
	g2 := rs[1]
	if g2.Ints[0] != 0 || g2.Ints[2] != -5 || g2.Ints[3] != 5 {
		t.Fatalf("group 2 aggs %v", g2.Ints)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	h := NewHash([]Spec{{Fn: Count}}, nil)
	addRows(h, [][]int64{{1}, {2}, {3}})
	rs := h.Results()
	if len(rs) != 1 || rs[0].Ints[0] != 3 {
		t.Fatalf("global count %v", rs)
	}
}

func TestEmptyInput(t *testing.T) {
	h := NewHash([]Spec{{Fn: Sum, Arg: col(0)}}, []expr.Node{col(0)})
	if rs := h.Results(); len(rs) != 0 {
		t.Fatalf("empty input should have no groups: %v", rs)
	}
	s := NewSorted([]Spec{{Fn: Sum, Arg: col(0)}}, []expr.Node{col(0)})
	if rs := s.Results(); len(rs) != 0 {
		t.Fatalf("sorted empty: %v", rs)
	}
}

func TestMinMaxNegativeOnly(t *testing.T) {
	specs := []Spec{{Fn: Min, Arg: col(0)}, {Fn: Max, Arg: col(0)}}
	h := NewHash(specs, nil)
	addRows(h, [][]int64{{-7}, {-3}, {-9}})
	rs := h.Results()
	if rs[0].Ints[0] != -9 || rs[0].Ints[1] != -3 {
		t.Fatalf("min/max of negatives %v", rs[0].Ints)
	}
}

func TestMultiColumnGroups(t *testing.T) {
	h := NewHash([]Spec{{Fn: Count}}, []expr.Node{col(0), col(1)})
	addRows(h, [][]int64{{1, 1, 0}, {1, 2, 0}, {1, 1, 0}, {2, 1, 0}})
	rs := h.Results()
	if len(rs) != 3 {
		t.Fatalf("groups %d", len(rs))
	}
	// Sorted lexicographically: (1,1) (1,2) (2,1)
	want := [][]int64{{1, 1}, {1, 2}, {2, 1}}
	for i, r := range rs {
		if !reflect.DeepEqual(r.Group, want[i]) {
			t.Fatalf("group order %v", rs)
		}
	}
	if rs[0].Ints[0] != 2 {
		t.Fatalf("count of (1,1) = %d", rs[0].Ints[0])
	}
}

// Property: Hash and Sorted aggregators produce identical results on
// random inputs with random grouping.
func TestHashSortedEquivalenceQuick(t *testing.T) {
	specs := []Spec{
		{Fn: Sum, Arg: col(1)},
		{Fn: Count},
		{Fn: Min, Arg: col(1)},
		{Fn: Max, Arg: col(1)},
		{Fn: Avg, Arg: col(1)},
	}
	f := func(data []int16) bool {
		h := NewHash(specs, []expr.Node{col(0)})
		s := NewSorted(specs, []expr.Node{col(0)})
		for _, d := range data {
			row := []int64{int64(d % 7), int64(d)}
			j := expr.Joined{Fact: row}
			h.Add(&j)
			s.Add(&j)
		}
		return reflect.DeepEqual(h.Results(), s.Results())
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: SUM distributes over input partitioning — aggregating two
// halves separately and adding per-group sums equals aggregating at once.
func TestSumPartitionQuick(t *testing.T) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}}
	f := func(data []int16, cut uint8) bool {
		k := int(cut) % (len(data) + 1)
		whole := NewHash(specs, []expr.Node{col(0)})
		left := NewHash(specs, []expr.Node{col(0)})
		right := NewHash(specs, []expr.Node{col(0)})
		for i, d := range data {
			j := expr.Joined{Fact: []int64{int64(d % 5), int64(d)}}
			whole.Add(&j)
			if i < k {
				left.Add(&j)
			} else {
				right.Add(&j)
			}
		}
		merged := map[int64]int64{}
		for _, r := range append(left.Results(), right.Results()...) {
			merged[r.Group[0]] += r.Ints[0]
		}
		for _, r := range whole.Results() {
			if merged[r.Group[0]] != r.Ints[0] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseFunc(t *testing.T) {
	for name, want := range map[string]Func{"SUM": Sum, "COUNT": Count, "MIN": Min, "MAX": Max, "AVG": Avg} {
		got, ok := ParseFunc(name)
		if !ok || got != want {
			t.Errorf("ParseFunc(%s) = %v,%v", name, got, ok)
		}
	}
	if _, ok := ParseFunc("MEDIAN"); ok {
		t.Error("unknown function must not parse")
	}
}

func TestFormatResults(t *testing.T) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}}
	h := NewHash(specs, []expr.Node{col(0)})
	addRows(h, [][]int64{{1, 5}})
	if FormatResults(h.Results(), specs) == "" {
		t.Fatal("format must render")
	}
}

// TestMergePartials checks the sharded-execution invariant directly:
// splitting a row stream into arbitrary partitions, aggregating each
// partition, and merging the partials must equal aggregating the whole
// stream at once — for every function, including AVG's sum+count state.
func TestMergePartials(t *testing.T) {
	specs := []Spec{
		{Fn: Sum, Arg: col(1)},
		{Fn: Count},
		{Fn: Min, Arg: col(1)},
		{Fn: Max, Arg: col(1)},
		{Fn: Avg, Arg: col(1)},
	}
	groupBy := []expr.Node{col(0)}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		nrows := rng.Intn(200) + 1
		rows := make([][]int64, nrows)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(8)), rng.Int63n(2001) - 1000}
		}

		whole := NewHash(specs, groupBy)
		addRows(whole, rows)
		want := whole.Results()

		nparts := rng.Intn(5) + 1
		aggs := make([]*Hash, nparts)
		for i := range aggs {
			aggs[i] = NewHash(specs, groupBy)
		}
		for _, r := range rows {
			addRows(aggs[rng.Intn(nparts)], [][]int64{r})
		}
		parts := make([][]Result, nparts)
		for i, a := range aggs {
			parts[i] = a.Results()
		}
		got := Merge(specs, parts...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d parts): merge diverges\n got %v\nwant %v", trial, nparts, got, want)
		}
	}
}

// TestMergeEmpty covers the degenerate shapes: no partials, empty
// partials, and a single partial passing through unchanged.
func TestMergeEmpty(t *testing.T) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}}
	if got := Merge(specs); got != nil {
		t.Fatalf("Merge() = %v", got)
	}
	if got := Merge(specs, nil, nil); got != nil {
		t.Fatalf("Merge(nil, nil) = %v", got)
	}
	one := []Result{{Group: []int64{1}, Ints: []int64{5}, Counts: []int64{2}}}
	got := Merge(specs, nil, one)
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("single partial changed: %v", got)
	}
}

// TestMergeLeavesPartialsIntact: Merge passes uncombined groups through
// without copying, so it must never write through a partial — combining
// happens on Merge's own copy.
func TestMergeLeavesPartialsIntact(t *testing.T) {
	specs := []Spec{{Fn: Sum, Arg: col(1)}, {Fn: Min, Arg: col(1)}}
	mk := func(g, v, n int64) Result {
		return Result{Group: []int64{g}, Ints: []int64{v, v}, Counts: []int64{n, n}}
	}
	a := []Result{mk(1, 10, 1), mk(2, 20, 2), mk(4, 40, 4)}
	b := []Result{mk(2, 5, 1), mk(3, 30, 3), mk(4, 1, 1)}
	c := []Result{mk(4, 7, 2)}
	snapshot := fmt.Sprint(a, b, c)
	got := Merge(specs, a, b, c)
	want := []Result{
		mk(1, 10, 1),
		{Group: []int64{2}, Ints: []int64{25, 5}, Counts: []int64{3, 3}},
		mk(3, 30, 3),
		{Group: []int64{4}, Ints: []int64{48, 1}, Counts: []int64{7, 7}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge:\n got %v\nwant %v", got, want)
	}
	if after := fmt.Sprint(a, b, c); after != snapshot {
		t.Fatalf("Merge modified its inputs:\nbefore %s\n after %s", snapshot, after)
	}
}
