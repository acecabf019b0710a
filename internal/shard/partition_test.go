package shard_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

func genPartitionedDataset(t testing.TB, rows, parts int, dc disk.Config) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 3, Partitions: parts, Disk: dc})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDealPartitions is the table-driven planner test: the deal must
// cover every partition exactly once, keep every shard non-empty
// whenever P >= N, and balance by page count — the greedy LPT invariant
// maxLoad <= minLoad + maxPart in general, with tighter max/min ratio
// bounds asserted where the instance allows them.
func TestDealPartitions(t *testing.T) {
	cases := []struct {
		name   string
		pages  []int
		shards int
		// maxRatio, when > 0, bounds maxLoad/minLoad.
		maxRatio float64
		// onePer asserts exactly one partition per shard (P == N).
		onePer bool
	}{
		{name: "P==N uniform", pages: []int{10, 10, 10, 10}, shards: 4, maxRatio: 1.0, onePer: true},
		{name: "P==N skewed", pages: []int{40, 10, 20, 30}, shards: 4, onePer: true},
		{name: "P>>N uniform", pages: repeat(10, 64), shards: 4, maxRatio: 1.0},
		{name: "P>>N mild skew", pages: []int{13, 7, 11, 9, 12, 8, 10, 14, 6, 10, 9, 11, 13, 7, 12, 8}, shards: 4, maxRatio: 1.3},
		{name: "one giant partition", pages: []int{100, 10, 10, 10, 10, 10, 10, 10}, shards: 4},
		{name: "P<N", pages: []int{25, 50}, shards: 4},
		{name: "zero-page partitions", pages: []int{0, 0, 0, 5, 5, 5}, shards: 3},
		{name: "single shard", pages: []int{5, 15, 25}, shards: 1, maxRatio: 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			subsets := shard.DealPartitions(tc.pages, tc.shards)
			if len(subsets) != tc.shards {
				t.Fatalf("%d subsets for %d shards", len(subsets), tc.shards)
			}
			// Exact coverage: every partition dealt to exactly one shard,
			// ascending within each shard.
			seen := make(map[int]int)
			loads := make([]int, tc.shards)
			nonEmpty := 0
			var maxPart int
			for _, p := range tc.pages {
				if p > maxPart {
					maxPart = p
				}
			}
			for si, sub := range subsets {
				if len(sub) > 0 {
					nonEmpty++
				}
				for i, g := range sub {
					if g < 0 || g >= len(tc.pages) {
						t.Fatalf("shard %d: partition %d out of range", si, g)
					}
					if i > 0 && sub[i-1] >= g {
						t.Fatalf("shard %d subset not ascending: %v", si, sub)
					}
					seen[g]++
					loads[si] += tc.pages[g]
				}
			}
			if len(seen) != len(tc.pages) {
				t.Fatalf("dealt %d of %d partitions", len(seen), len(tc.pages))
			}
			for g, n := range seen {
				if n != 1 {
					t.Fatalf("partition %d dealt %d times", g, n)
				}
			}
			if tc.onePer {
				for si, sub := range subsets {
					if len(sub) != 1 {
						t.Fatalf("shard %d holds %d partitions, want 1: %v", si, len(sub), subsets)
					}
				}
			}
			if len(tc.pages) >= tc.shards {
				if nonEmpty != tc.shards {
					t.Fatalf("%d of %d shards empty despite P >= N: %v", tc.shards-nonEmpty, tc.shards, subsets)
				}
			} else if nonEmpty != len(tc.pages) {
				// P < N: exactly P shards can hold work.
				t.Fatalf("%d non-empty shards for %d partitions: %v", nonEmpty, len(tc.pages), subsets)
			}
			minLoad, maxLoad := loads[0], loads[0]
			for _, l := range loads[1:] {
				if l < minLoad {
					minLoad = l
				}
				if l > maxLoad {
					maxLoad = l
				}
			}
			if len(tc.pages) >= tc.shards && maxLoad > minLoad+maxPart {
				// The greedy invariant: the heaviest shard received its
				// last partition while it was the lightest.
				t.Fatalf("imbalance beyond one partition: loads %v, max partition %d", loads, maxPart)
			}
			if tc.maxRatio > 0 && minLoad > 0 {
				if ratio := float64(maxLoad) / float64(minLoad); ratio > tc.maxRatio {
					t.Fatalf("max/min load ratio %.3f exceeds %.2f: loads %v", ratio, tc.maxRatio, loads)
				}
			}
			// Determinism: the same inputs must re-derive the same deal.
			again := shard.DealPartitions(tc.pages, tc.shards)
			if fmt.Sprint(again) != fmt.Sprint(subsets) {
				t.Fatalf("deal not deterministic: %v then %v", subsets, again)
			}
		})
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestGroupDealsAllPartitions verifies the live topology matches the
// planner: the group's shard subsets cover the star's partitions exactly
// once, and a COUNT(*) sees every fact row exactly once — partitions
// dealt, not replicated.
func TestGroupDealsAllPartitions(t *testing.T) {
	ds := genPartitionedDataset(t, 3000, 6, disk.Config{})
	for _, n := range []int{2, 3, 6} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: core.Config{MaxConcurrent: 8, Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		subs := g.ShardPartitions()
		if len(subs) != n {
			t.Fatalf("%d shards report %d subsets", n, len(subs))
		}
		want := shard.DealPartitions(ds.Star.PartitionPages(), n)
		if fmt.Sprint(subs) != fmt.Sprint(want) {
			t.Fatalf("topology %v diverges from planner %v", subs, want)
		}
		h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Ints[0] != 3000 {
			t.Fatalf("%d shards: COUNT(*) = %v, want 3000", n, res.Rows)
		}
		// Full-table pages charged across shards must cover every
		// partition exactly once.
		total := 0
		for _, p := range ds.Star.PartitionPages() {
			total += p
		}
		if got := h.PagesScanned(); got != int64(total) {
			t.Fatalf("%d shards: %d pages charged, partitions hold %d", n, got, total)
		}
	}
}

// TestShardedPruningPreserved is the pruning-effectiveness check: under a
// narrow date predicate the pages charged across all shards must equal
// the single-pipeline pruned count exactly — dealing partitions to shards
// must not scan a page pruning would have skipped. Since PR 9 the count
// is page-granular: zone maps prune inside needed partitions, so the
// parity assertion covers both pruning levels, and a partition-only
// baseline, summed from the sizes of the partitions the window
// overlaps, pins that the page level actually cuts deeper.
func TestShardedPruningPreserved(t *testing.T) {
	ds := genPartitionedDataset(t, 4000, 6, disk.Config{})
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}

	single := openGroup(t, ds, 1, ccfg)

	// partPages is the partition-granular baseline: the pages of every
	// partition whose key range overlaps [lo, hi].
	partPages := func(lo, hi int64) (pages int64) {
		for _, p := range ds.Star.Partitions() {
			if hi >= p.MinKey && lo <= p.MaxKey {
				pages += int64(p.Heap.NumPages())
			}
		}
		return pages
	}
	nk := len(ds.DateKeys)
	queries := []struct {
		sql           string
		partOnlyPages int64
	}{
		// Narrow: first eighth of the date span — a strict partition subset.
		{fmt.Sprintf("SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
			ds.DateKeys[0], ds.DateKeys[nk/8]), partPages(ds.DateKeys[0], ds.DateKeys[nk/8])},
		// Mid-span window crossing a partition boundary.
		{fmt.Sprintf("SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
			ds.DateKeys[nk/3], ds.DateKeys[nk/2]), partPages(ds.DateKeys[nk/3], ds.DateKeys[nk/2])},
		// Empty key range: zero partitions, zero pages.
		{"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 1 AND 2 GROUP BY d_year", 0},
		// Unrestricted: every partition.
		{"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
			partPages(math.MinInt64, math.MaxInt64)},
	}

	var totalPages int
	for _, p := range ds.Star.PartitionPages() {
		totalPages += p
	}
	for qi, tc := range queries {
		sql, partOnlyPages := tc.sql, tc.partOnlyPages
		sh, err := single.Submit(bind(t, ds, sql))
		if err != nil {
			t.Fatal(err)
		}
		if res := sh.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		singlePages := sh.PagesScanned()
		for _, n := range []int{2, 3} {
			g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
			if err != nil {
				t.Fatal(err)
			}
			g.Start()
			gh, err := g.Submit(bind(t, ds, sql))
			if err != nil {
				t.Fatal(err)
			}
			res := gh.Wait()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := gh.PagesScanned(); got != singlePages {
				t.Fatalf("query %d, %d shards: %d pages summed across shards, single pipeline pruned to %d",
					qi, n, got, singlePages)
			}
			g.Stop()
		}
		// Sanity on the pruning itself, so an equality of two broken
		// counts cannot pass: narrow queries must beat the full table,
		// and the page level must cut strictly deeper than partitions
		// alone (a date window rarely covers its partitions page-exactly).
		switch qi {
		case 0, 1:
			if singlePages == 0 || singlePages >= int64(totalPages) {
				t.Fatalf("query %d: pruning ineffective (%d of %d pages)", qi, singlePages, totalPages)
			}
			if singlePages >= partOnlyPages {
				t.Fatalf("query %d: zone maps charged %d pages, partition-only pruning %d — page level inert",
					qi, singlePages, partOnlyPages)
			}
		case 2:
			if singlePages != 0 || partOnlyPages != 0 {
				t.Fatalf("empty-range query scanned %d (zonemap) / %d (partition-only) pages", singlePages, partOnlyPages)
			}
		case 3:
			if singlePages != int64(totalPages) || partOnlyPages != int64(totalPages) {
				t.Fatalf("unrestricted query scanned %d (zonemap) / %d (partition-only) of %d pages",
					singlePages, partOnlyPages, totalPages)
			}
		}
	}
}

// TestPartitionedDegenerateRejected pins the narrowed topology error:
// partition dealing needs at least one partition per shard, so more
// shards than partitions is the one remaining 422. Equal or fewer shards
// must construct and answer correctly.
func TestPartitionedDegenerateRejected(t *testing.T) {
	ds := genPartitionedDataset(t, 2000, 2, disk.Config{})
	_, err := shard.New(ds.Star, shard.Config{Shards: 4})
	if err == nil {
		t.Fatal("4 shards over 2 partitions accepted")
	}
	var rpe *shard.RangePartitionedError
	if !errors.As(err, &rpe) {
		t.Fatalf("error is %T (%v), want *shard.RangePartitionedError", err, err)
	}
	if rpe.Shards != 4 || rpe.Partitions != 2 {
		t.Fatalf("typed error fields: %+v", rpe)
	}
	if rpe.HTTPStatus() != 422 {
		t.Fatalf("HTTPStatus() = %d, want 422", rpe.HTTPStatus())
	}
	// Shards == partitions is the tightest legal deal: one each.
	g, err := shard.New(ds.Star, shard.Config{Shards: 2, Core: core.Config{MaxConcurrent: 4, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	for _, sub := range g.ShardPartitions() {
		if len(sub) != 1 {
			t.Fatalf("P==N deal not one partition per shard: %v", g.ShardPartitions())
		}
	}
	h, err := g.Submit(bind(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil || res.Rows[0].Ints[0] != 2000 {
		t.Fatalf("partitioned 2-shard count: %v", res)
	}
}

// TestPartitionedParityAgainstRef spot-checks a partition-dealt group
// against the reference executor on pruning-sensitive templates (the
// broad randomized sweep lives in TestShardParityPartitionedSSB).
func TestPartitionedParityAgainstRef(t *testing.T) {
	ds := genPartitionedDataset(t, 2500, 4, disk.Config{})
	g, err := shard.New(ds.Star, shard.Config{Shards: 4, Core: core.Config{MaxConcurrent: 8, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	for _, sql := range []string{
		fmt.Sprintf("SELECT SUM(lo_revenue) AS rev, d_yearmonthnum FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_yearmonthnum ORDER BY d_yearmonthnum",
			ds.DateKeys[0], ds.DateKeys[len(ds.DateKeys)/4]),
		"SELECT AVG(lo_quantity) AS aq, MIN(lo_revenue) AS mn, MAX(lo_revenue) AS mx, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year LIMIT 3",
	} {
		b, err := query.ParseBind(sql, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		b.Snapshot = ds.Txn.Begin()
		want, err := ref.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("partition-dealt group diverges from ref: %s\n got: %s\nwant: %s",
				sql, dump(res.Rows), dump(want))
		}
	}
}
