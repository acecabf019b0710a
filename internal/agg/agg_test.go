package agg_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cjoin/internal/agg"
	"cjoin/internal/expr"
	"cjoin/internal/ref"
)

func col(i int) expr.Node { return expr.Col{Slot: 0, Idx: i, Name: "c"} }

// cols groups by the first n columns.
func cols(n int) []expr.Node {
	out := make([]expr.Node, n)
	for i := range out {
		out[i] = col(i)
	}
	return out
}

// allFuncs aggregates column arg with every function.
func allFuncs(arg int) []agg.Spec {
	return []agg.Spec{
		{Fn: agg.Sum, Arg: col(arg)},
		{Fn: agg.Count},
		{Fn: agg.Min, Arg: col(arg)},
		{Fn: agg.Max, Arg: col(arg)},
		{Fn: agg.Avg, Arg: col(arg)},
	}
}

func addRows(a interface{ Add(*expr.Joined) }, rows [][]int64) {
	for _, r := range rows {
		j := expr.Joined{Fact: r}
		a.Add(&j)
	}
}

// sortedResults aggregates rows with the reference's sort-based
// aggregator, which shares no code with agg.Hash.
func sortedResults(specs []agg.Spec, groupBy []expr.Node, rows [][]int64) []agg.Result {
	s := ref.NewSorted(specs, groupBy)
	addRows(s, rows)
	return s.Results()
}

func hashResults(specs []agg.Spec, groupBy []expr.Node, rows [][]int64) []agg.Result {
	h := agg.NewHash(specs, groupBy)
	addRows(h, rows)
	return h.Results()
}

func sameResults(t *testing.T, what string, got, want []agg.Result) {
	t.Helper()
	if !ref.ResultsEqual(got, want) {
		t.Fatalf("%s: Hash diverges from the sort aggregator (%d vs %d groups)\n got %v\nwant %v",
			what, len(got), len(want), head(got), head(want))
	}
}

func head(rs []agg.Result) []agg.Result { return rs[:min(len(rs), 8)] }

func TestHashAllFunctions(t *testing.T) {
	specs := allFuncs(1)
	h := agg.NewHash(specs, []expr.Node{col(0)})
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
	h := agg.NewHash([]agg.Spec{{Fn: agg.Count}}, nil)
	addRows(h, [][]int64{{1}, {2}, {3}})
	rs := h.Results()
	if len(rs) != 1 || rs[0].Ints[0] != 3 {
		t.Fatalf("global count %v", rs)
	}
}

// TestEmptyInput: a Hash that saw no row has no groups — Results is nil,
// with or without a GROUP BY — and neither has the sort aggregator.
func TestEmptyInput(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(0)}}
	for _, groupBy := range [][]expr.Node{nil, cols(1), cols(3)} {
		if rs := agg.NewHash(specs, groupBy).Results(); rs != nil {
			t.Fatalf("empty input, %d group columns: Results = %v, want nil", len(groupBy), rs)
		}
	}
	if rs := ref.NewSorted(specs, cols(1)).Results(); len(rs) != 0 {
		t.Fatalf("sorted empty: %v", rs)
	}
}

func TestMinMaxNegativeOnly(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Min, Arg: col(0)}, {Fn: agg.Max, Arg: col(0)}}
	h := agg.NewHash(specs, nil)
	addRows(h, [][]int64{{-7}, {-3}, {-9}})
	rs := h.Results()
	if rs[0].Ints[0] != -9 || rs[0].Ints[1] != -3 {
		t.Fatalf("min/max of negatives %v", rs[0].Ints)
	}
}

func TestMultiColumnGroups(t *testing.T) {
	h := agg.NewHash([]agg.Spec{{Fn: agg.Count}}, []expr.Node{col(0), col(1)})
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

// Property: Hash and the reference's sort aggregator produce identical
// results on random inputs with random grouping.
func TestHashSortedEquivalenceQuick(t *testing.T) {
	specs := allFuncs(1)
	groupBy := cols(1)
	f := func(data []int16) bool {
		rows := make([][]int64, len(data))
		for i, d := range data {
			rows[i] = []int64{int64(d % 7), int64(d)}
		}
		return ref.ResultsEqual(hashResults(specs, groupBy, rows), sortedResults(specs, groupBy, rows))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHashMatchesSortedAtEveryWidth compares Hash with the sort
// aggregator at zero to three group columns, over every function. Each
// trial shifts all values by one offset, so in some trials every value is
// positive (a MIN that started from zero would read 0) and in others
// every value is negative (likewise a MAX): MIN and MAX must take a
// group's first value as their start.
func TestHashMatchesSortedAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for ng := 0; ng <= 3; ng++ {
		specs, groupBy := allFuncs(ng), cols(ng)
		for trial := 0; trial < 30; trial++ {
			shift := []int64{-5000, 0, 5000}[trial%3]
			domain := int64(rng.Intn(6) + 1)
			rows := make([][]int64, rng.Intn(300))
			for i := range rows {
				row := make([]int64, ng+1)
				for c := 0; c < ng; c++ {
					row[c] = rng.Int63n(domain) - domain/2
				}
				row[ng] = shift + rng.Int63n(2001) - 1000
				rows[i] = row
			}
			got, want := hashResults(specs, groupBy, rows), sortedResults(specs, groupBy, rows)
			sameResults(t, fmt.Sprintf("%d group columns, trial %d", ng, trial), got, want)
		}
	}
}

// TestHashMatchesSortedAcrossGrowth drives group counts from 1 to 20 000
// — every table limit and one past it, so each doubling is crossed at
// its boundary — and compares with the sort aggregator. At 20 000 groups
// the table must have doubled at least eight times and kept its load at
// most 3/4.
func TestHashMatchesSortedAcrossGrowth(t *testing.T) {
	counts := []int{1, 2, 20000}
	for size := agg.MinTable; size/4*3 < 20000; size *= 2 {
		counts = append(counts, size/4*3, size/4*3+1)
	}
	specs, groupBy := allFuncs(3), cols(3)
	rng := rand.New(rand.NewSource(2026))
	for _, n := range counts {
		var rows [][]int64
		for _, p := range rng.Perm(n) {
			// Three columns, distinct per group; each group 1–3 rows.
			key := []int64{int64(p) * 7919, int64(p%13) - 6, -int64(p)}
			for r := rng.Intn(3); r >= 0; r-- {
				rows = append(rows, append(key[:3:3], rng.Int63n(1000)-500))
			}
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		h := agg.NewHash(specs, groupBy)
		addRows(h, rows)
		tl := h.TableLen()
		if n > tl/4*3 {
			t.Fatalf("%d groups in a table of %d: load above 3/4", n, tl)
		}
		if n == 20000 && tl < agg.MinTable<<8 {
			t.Fatalf("%d groups: table of %d has doubled fewer than eight times from %d", n, tl, agg.MinTable)
		}
		got := h.Results()
		if len(got) != n {
			t.Fatalf("%d groups in, %d out", n, len(got))
		}
		sameResults(t, fmt.Sprintf("%d groups", n), got, sortedResults(specs, groupBy, rows))
	}
}

// TestHashAdversarialKeys: extreme and negative keys, and keys that
// differ only in their high bits (which a hash that ignored them would
// pile into one probe chain), at one to three group columns.
func TestHashAdversarialKeys(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	var high []int64
	for k := int64(0); k < 600; k++ {
		high = append(high, k<<52, -(k << 44), (k<<33)|7)
	}
	rng := rand.New(rand.NewSource(9))
	for ng := 1; ng <= 3; ng++ {
		var keys [][]int64
		for _, e := range edges {
			for _, f := range edges {
				key := make([]int64, ng)
				key[0], key[ng-1] = e, f
				keys = append(keys, key)
			}
		}
		for _, v := range high {
			key := make([]int64, ng)
			key[rng.Intn(ng)] = v
			keys = append(keys, key)
		}
		var rows [][]int64
		for rep := 0; rep < 3; rep++ {
			for _, key := range keys {
				arg := edges[rng.Intn(len(edges))]
				rows = append(rows, append(key[:ng:ng], arg))
			}
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		specs, groupBy := allFuncs(ng), cols(ng)
		sameResults(t, fmt.Sprintf("adversarial keys, %d group columns", ng),
			hashResults(specs, groupBy, rows), sortedResults(specs, groupBy, rows))
	}
}

// TestResultsCapacityClipped: every result's slices are cut from shared
// arenas with their capacity clipped, so appending to one result's
// Group, Ints or Counts leaves the next result intact.
func TestResultsCapacityClipped(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(2)}, {Fn: agg.Count}}
	rows := [][]int64{{1, 1, 10}, {1, 2, 20}, {2, 1, 30}}
	for name, rs := range map[string][]agg.Result{
		"Results": hashResults(specs, cols(2), rows),
		"Merge":   agg.Merge(specs, hashResults(specs, cols(2), rows[:2]), hashResults(specs, cols(2), rows[1:])),
	} {
		want := fmt.Sprint(rs[1:])
		_ = append(rs[0].Group, -1)
		_ = append(rs[0].Ints, -1)
		_ = append(rs[0].Counts, -1)
		if got := fmt.Sprint(rs[1:]); got != want {
			t.Fatalf("%s: appending to result 0 changed the rest:\nbefore %s\n after %s", name, want, got)
		}
	}
}

// Property: SUM distributes over input partitioning — aggregating two
// halves separately and adding per-group sums equals aggregating at once.
func TestSumPartitionQuick(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(1)}}
	f := func(data []int16, cut uint8) bool {
		k := int(cut) % (len(data) + 1)
		whole := agg.NewHash(specs, []expr.Node{col(0)})
		left := agg.NewHash(specs, []expr.Node{col(0)})
		right := agg.NewHash(specs, []expr.Node{col(0)})
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
	for name, want := range map[string]agg.Func{"SUM": agg.Sum, "COUNT": agg.Count, "MIN": agg.Min, "MAX": agg.Max, "AVG": agg.Avg} {
		got, ok := agg.ParseFunc(name)
		if !ok || got != want {
			t.Errorf("ParseFunc(%s) = %v,%v", name, got, ok)
		}
	}
	if _, ok := agg.ParseFunc("MEDIAN"); ok {
		t.Error("unknown function must not parse")
	}
}

func TestFormatResults(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(1)}}
	if agg.FormatResults(hashResults(specs, cols(1), [][]int64{{1, 5}}), specs) == "" {
		t.Fatal("format must render")
	}
}

// TestMergePartials checks partition additivity, the sharded-execution
// invariant: splitting a row stream into k ∈ 1..5 partitions (some of
// them empty), aggregating each, and merging the partials must equal
// aggregating the whole stream at once — for every function, including
// AVG's sum+count state, at zero to three group columns. A single
// partial is returned as it is, backing array and all.
func TestMergePartials(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		ng := trial % 4
		specs, groupBy := allFuncs(ng), cols(ng)
		rows := make([][]int64, rng.Intn(200)+1)
		for i := range rows {
			row := make([]int64, ng+1)
			for c := 0; c < ng; c++ {
				row[c] = int64(rng.Intn(4))
			}
			row[ng] = rng.Int63n(2001) - 1000
			rows[i] = row
		}
		want := hashResults(specs, groupBy, rows)

		nparts := rng.Intn(5) + 1
		var live []int // partials that receive rows; the rest stay empty
		for i := 0; i < nparts; i++ {
			if rng.Intn(3) > 0 {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			live = []int{rng.Intn(nparts)}
		}
		split := make([][][]int64, nparts)
		for _, r := range rows {
			p := live[rng.Intn(len(live))]
			split[p] = append(split[p], r)
		}
		parts := make([][]agg.Result, nparts)
		for i, rs := range split {
			parts[i] = hashResults(specs, groupBy, rs)
		}
		got := agg.Merge(specs, parts...)
		if !ref.ResultsEqual(got, want) {
			t.Fatalf("trial %d (%d parts, %d group columns): merge diverges\n got %v\nwant %v", trial, nparts, ng, got, want)
		}
		if nparts == 1 && &got[0] != &parts[0][0] {
			t.Fatalf("trial %d: Merge of one partial copied it", trial)
		}
	}
}

// TestMergeEmpty covers the degenerate shapes: no partials, empty
// partials, and a single partial, which is returned as it is.
func TestMergeEmpty(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(1)}}
	if got := agg.Merge(specs); got != nil {
		t.Fatalf("Merge() = %v", got)
	}
	if got := agg.Merge(specs, nil, nil); got != nil {
		t.Fatalf("Merge(nil, nil) = %v", got)
	}
	one := []agg.Result{{Group: []int64{1}, Ints: []int64{5}, Counts: []int64{2}}}
	if got := agg.Merge(specs, nil, one); !reflect.DeepEqual(got, one) {
		t.Fatalf("one non-empty partial changed: %v", got)
	}
	if got := agg.Merge(specs, one); len(got) != 1 || &got[0] != &one[0] {
		t.Fatalf("Merge of exactly one partial must return it: %v", got)
	}
}

// TestMergeLeavesPartialsIntact: Merge writes every group, combined or
// not, into its own arenas. It never writes through a partial, and no
// output slice aliases one, so writing to the output afterwards cannot
// reach a partial either.
func TestMergeLeavesPartialsIntact(t *testing.T) {
	specs := []agg.Spec{{Fn: agg.Sum, Arg: col(1)}, {Fn: agg.Min, Arg: col(1)}}
	mk := func(g, v, n int64) agg.Result {
		return agg.Result{Group: []int64{g}, Ints: []int64{v, v}, Counts: []int64{n, n}}
	}
	a := []agg.Result{mk(1, 10, 1), mk(2, 20, 2), mk(4, 40, 4)}
	b := []agg.Result{mk(2, 5, 1), mk(3, 30, 3), mk(4, 1, 1)}
	c := []agg.Result{mk(4, 7, 2)}
	snapshot := fmt.Sprint(a, b, c)
	got := agg.Merge(specs, a, b, c)
	want := []agg.Result{
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
	for _, r := range got {
		r.Group[0], r.Ints[0], r.Counts[0] = -1, -1, -1
	}
	if after := fmt.Sprint(a, b, c); after != snapshot {
		t.Fatalf("Merge output aliases a partial:\nbefore %s\n after %s", snapshot, after)
	}
}
