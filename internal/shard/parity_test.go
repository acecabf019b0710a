package shard_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cjoin/internal/agg"
	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// TestShardParityRandomSSB is the exactness property test: for randomized
// SSB star queries — including GROUP BY, ORDER BY (group columns and
// aggregate aliases, ASC and DESC), LIMIT, and every aggregate function
// (SUM/COUNT/MIN/MAX/AVG) — the sharded Group must return results
// byte-identical (group keys, aggregate ints, and counts) to both a
// single Pipeline and the naive internal/ref executor.
func TestShardParityRandomSSB(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}

	single := openGroup(t, ds, 1, ccfg)

	groups := make(map[int]*shard.Group)
	for _, n := range []int{2, 3, 4} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		groups[n] = g
	}

	rng := rand.New(rand.NewSource(42))
	w := ssb.NewWorkload(ds, 0.05, 13)
	texts := make([]string, 0, 40)
	for i := 0; i < 24; i++ {
		_, text := w.Next()
		switch rng.Intn(3) {
		case 0:
			// Exercise AVG partials (sum+count folded across shards).
			text = strings.Replace(text, "SUM(", "AVG(", 1)
		case 1:
			// Exercise group-level LIMIT after the merge.
			text = fmt.Sprintf("%s LIMIT %d", text, rng.Intn(5)+1)
		}
		texts = append(texts, text)
	}
	// Handcrafted queries covering every aggregate at once, ORDER BY on an
	// aggregate alias (ties broken by the stable group-key order), and
	// LIMIT cutting through those ties.
	for _, extra := range []string{
		`SELECT COUNT(*) AS n, MIN(lo_revenue) AS mn, MAX(lo_revenue) AS mx,
		        AVG(lo_quantity) AS aq, SUM(lo_revenue) AS rev, d_year
		 FROM lineorder, date WHERE lo_orderdate = d_datekey
		 GROUP BY d_year ORDER BY d_year`,
		`SELECT SUM(lo_revenue) AS rev, COUNT(*) AS n, d_year, c_nation
		 FROM lineorder, date, customer
		 WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey
		 GROUP BY d_year, c_nation ORDER BY rev DESC LIMIT 7`,
		`SELECT AVG(lo_revenue) AS arev, MAX(lo_discount) AS md, s_region
		 FROM lineorder, supplier WHERE lo_suppkey = s_suppkey
		 GROUP BY s_region ORDER BY md DESC, s_region LIMIT 3`,
		`SELECT COUNT(*) AS n FROM lineorder`,
		`SELECT MIN(lo_supplycost) AS mn, MAX(lo_supplycost) AS mx
		 FROM lineorder, part WHERE lo_partkey = p_partkey AND p_mfgr = 'MFGR#1'`,
	} {
		texts = append(texts, extra)
	}

	for qi, text := range texts {
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, text, err)
		}
		b.Snapshot = ds.Txn.Begin()

		want, err := ref.Execute(b)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}

		h, err := single.Submit(b)
		if err != nil {
			t.Fatalf("query %d single submit: %v", qi, err)
		}
		sres := h.Wait()
		if sres.Err != nil {
			t.Fatalf("query %d single: %v", qi, sres.Err)
		}
		if !ref.ResultsEqual(sres.Rows, want) {
			t.Fatalf("query %d: single pipeline diverges from ref\nquery: %s\n got: %s\nwant: %s",
				qi, text, dump(sres.Rows), dump(want))
		}

		for n, g := range groups {
			gh, err := g.Submit(b)
			if err != nil {
				t.Fatalf("query %d group(%d) submit: %v", qi, n, err)
			}
			gres := gh.Wait()
			if gres.Err != nil {
				t.Fatalf("query %d group(%d): %v", qi, n, gres.Err)
			}
			if !ref.ResultsEqual(gres.Rows, want) {
				t.Fatalf("query %d: %d-shard group diverges from ref\nquery: %s\n got: %s\nwant: %s",
					qi, n, text, dump(gres.Rows), dump(want))
			}
			if !ref.ResultsEqual(gres.Rows, sres.Rows) {
				t.Fatalf("query %d: %d-shard group diverges from single pipeline", qi, n)
			}
			// Page-level pruning parity on the strided topology: each
			// shard makes the same per-page zone-map decisions as the
			// single pipeline (bounds forwarded through the stride
			// mapping), so the pages charged across shards must sum to
			// the single pipeline's zone-mapped count exactly.
			if got := gh.PagesScanned(); got != h.PagesScanned() {
				t.Fatalf("query %d: %d strided shards charged %d pages, single pipeline %d",
					qi, n, got, h.PagesScanned())
			}
		}
	}
}

// TestShardParityPartitionedSSB extends the exactness property to
// range-partitioned stars: for randomized SSB queries — the workload
// generator's templates plus AVG and LIMIT mutations and handcrafted
// selective lo_orderdate windows that exercise §5 partition pruning —
// every partition-dealt Group(N shards over P partitions) must return
// results byte-identical to both a single pipeline over the same
// partitioned star and the naive reference executor.
func TestShardParityPartitionedSSB(t *testing.T) {
	const parts = 5
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 7, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}

	single := openGroup(t, ds, 1, ccfg)

	groups := make(map[int]*shard.Group)
	for _, n := range []int{2, 3, parts} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		groups[n] = g
	}

	rng := rand.New(rand.NewSource(44))
	w := ssb.NewWorkload(ds, 0.05, 17)
	var texts []string
	for i := 0; i < 16; i++ {
		_, text := w.Next()
		switch rng.Intn(3) {
		case 0:
			text = strings.Replace(text, "SUM(", "AVG(", 1)
		case 1:
			text = fmt.Sprintf("%s LIMIT %d", text, rng.Intn(5)+1)
		}
		texts = append(texts, text)
	}
	// Selective date windows: random spans from sub-partition slivers to
	// multi-partition ranges, so pruning decisions (zero, one, some, all
	// partitions) and the pruned completion path all get exercised across
	// every shard topology.
	keys := ds.DateKeys
	for i := 0; i < 10; i++ {
		lo := rng.Intn(len(keys))
		span := rng.Intn(len(keys)/2) + 1
		hi := lo + span
		if hi >= len(keys) {
			hi = len(keys) - 1
		}
		aggExpr := "SUM(lo_revenue) AS rev"
		if i%3 == 0 {
			aggExpr = "COUNT(*) AS n, AVG(lo_quantity) AS aq"
		}
		texts = append(texts, fmt.Sprintf(
			"SELECT %s, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year ORDER BY d_year",
			aggExpr, keys[lo], keys[hi]))
	}
	// Handcrafted edges: an empty key range (every partition pruned) and
	// an ORDER BY on an aggregate alias cut by LIMIT.
	texts = append(texts,
		"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 1 AND 2 GROUP BY d_year",
		`SELECT SUM(lo_revenue) AS rev, COUNT(*) AS n, MIN(lo_discount) AS mn, MAX(lo_discount) AS mx, d_year, s_region
		 FROM lineorder, date, supplier WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey
		 GROUP BY d_year, s_region ORDER BY rev DESC LIMIT 6`,
	)

	for qi, text := range texts {
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, text, err)
		}
		b.Snapshot = ds.Txn.Begin()

		want, err := ref.Execute(b)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}
		h, err := single.Submit(b)
		if err != nil {
			t.Fatalf("query %d single submit: %v", qi, err)
		}
		sres := h.Wait()
		if sres.Err != nil {
			t.Fatalf("query %d single: %v", qi, sres.Err)
		}
		if !ref.ResultsEqual(sres.Rows, want) {
			t.Fatalf("query %d: single pipeline diverges from ref\nquery: %s\n got: %s\nwant: %s",
				qi, text, dump(sres.Rows), dump(want))
		}
		for n, g := range groups {
			gh, err := g.Submit(b)
			if err != nil {
				t.Fatalf("query %d group(%d) submit: %v", qi, n, err)
			}
			gres := gh.Wait()
			if gres.Err != nil {
				t.Fatalf("query %d group(%d): %v", qi, n, gres.Err)
			}
			if !ref.ResultsEqual(gres.Rows, want) {
				t.Fatalf("query %d: %d-shard partitioned group diverges from ref\nquery: %s\n got: %s\nwant: %s",
					qi, n, text, dump(gres.Rows), dump(want))
			}
			if !ref.ResultsEqual(gres.Rows, sres.Rows) {
				t.Fatalf("query %d: %d-shard partitioned group diverges from single pipeline", qi, n)
			}
			// Pruning parity rides along: pages charged across shards
			// must match the single pipeline's pruned count exactly.
			if got := gh.PagesScanned(); got != h.PagesScanned() {
				t.Fatalf("query %d: %d shards charged %d pages, single pipeline %d",
					qi, n, got, h.PagesScanned())
			}
		}
	}
}

// TestShardParityWideGroups extends the exactness property to wide
// result sets: randomized queries grouping by three high-cardinality
// dimension attributes, with no predicate, so every query has at least
// 5 000 groups. That drives each shard's aggregation table through many
// doublings and the gather through a multi-partial agg.Merge of large
// partials; at every shard count the answer must equal internal/ref's.
func TestShardParityWideGroups(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 8000, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}
	groups := map[int]*shard.Group{}
	for _, n := range []int{1, 2, 3} {
		groups[n] = openGroup(t, ds, n, ccfg)
	}

	triples := []string{
		"c_city, s_city, d_year",
		"d_year, s_city, p_brand1",
		"p_brand1, c_nation, d_yearmonthnum",
		"s_city, c_city, p_category",
	}
	fns := []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}
	measures := []string{"lo_revenue", "lo_quantity", "lo_discount", "lo_supplycost", "lo_extendedprice"}
	rng := rand.New(rand.NewSource(26))
	for qi := 0; qi < 8; qi++ {
		var sel []string
		for a := rng.Intn(4); a >= 0; a-- {
			fn, m := fns[rng.Intn(len(fns))], measures[rng.Intn(len(measures))]
			if fn == "COUNT" {
				m = "*"
			}
			sel = append(sel, fmt.Sprintf("%s(%s) AS a%d", fn, m, a))
		}
		group := triples[qi%len(triples)]
		text := fmt.Sprintf(`SELECT %s, %s FROM lineorder, customer, supplier, part, date
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			GROUP BY %s`, strings.Join(sel, ", "), group, group)
		if rng.Intn(2) == 0 {
			text += " ORDER BY a0 DESC"
		}
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, text, err)
		}
		b.Snapshot = ds.Txn.Begin()
		want, err := ref.Execute(b)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}
		if len(want) < 5000 {
			t.Fatalf("query %d has %d groups, want >= 5000: %s", qi, len(want), text)
		}
		for _, n := range []int{1, 2, 3} {
			h, err := groups[n].Submit(b)
			if err != nil {
				t.Fatalf("query %d group(%d) submit: %v", qi, n, err)
			}
			res := h.Wait()
			if res.Err != nil {
				t.Fatalf("query %d group(%d): %v", qi, n, res.Err)
			}
			if !ref.ResultsEqual(res.Rows, want) {
				t.Fatalf("query %d: %d-shard group diverges from ref (%d vs %d groups)\nquery: %s",
					qi, n, len(res.Rows), len(want), text)
			}
		}
	}
}

func dump(rs []agg.Result) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "\n  group=%v ints=%v counts=%v", r.Group, r.Ints, r.Counts)
	}
	return sb.String()
}
