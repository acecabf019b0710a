package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

func partitionedDataset(t testing.TB, rows, parts int) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 81, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPartitionedResultsMatchReference(t *testing.T) {
	ds := partitionedDataset(t, 3000, 4)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 16, Workers: 2})
	for _, q := range bindWorkload(t, ds, 10, 0.1, 83) {
		h, err := p.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("partitioned query diverges: %s", q.SQL)
		}
	}
}

func TestPartitionPruningTerminatesEarly(t *testing.T) {
	// A query restricted to a narrow date range must scan only the
	// partitions overlapping that range (§5) — observable through the
	// pages the preprocessor charged to it.
	ds := partitionedDataset(t, 4000, 4)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})

	// First quarter of the date span: exactly one partition.
	narrow := fmt.Sprintf(
		"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
		ds.DateKeys[0], ds.DateKeys[len(ds.DateKeys)/8])
	qNarrow, err := query.ParseBind(narrow, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	hNarrow, err := p.Submit(qNarrow)
	if err != nil {
		t.Fatal(err)
	}
	resNarrow := hNarrow.Wait()
	if resNarrow.Err != nil {
		t.Fatal(resNarrow.Err)
	}
	want, _ := ref.Execute(qNarrow)
	if !ref.ResultsEqual(resNarrow.Rows, want) {
		t.Fatal("pruned query diverges from reference")
	}

	// An unrestricted query for comparison.
	wide, err := query.ParseBind(
		"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	hWide, err := p.Submit(wide)
	if err != nil {
		t.Fatal(err)
	}
	if res := hWide.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}

	narrowPages := hNarrow.PagesScanned()
	widePages := hWide.PagesScanned()
	if narrowPages*2 >= widePages {
		t.Fatalf("pruning ineffective: narrow=%d pages, wide=%d pages", narrowPages, widePages)
	}
}

func TestPruningToZeroPartitions(t *testing.T) {
	// A predicate selecting no dimension tuples needs zero pages and
	// completes immediately with an empty result.
	ds := partitionedDataset(t, 1000, 4)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q, err := query.ParseBind(
		"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 1 AND 2 GROUP BY d_year", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("expected empty result, got %d rows", len(res.Rows))
	}
	if h.PagesScanned() != 0 {
		t.Fatalf("zero-partition query scanned %d pages", h.PagesScanned())
	}
}

// TestPartSubsetScan verifies the partition-dealt shard primitive: a
// pipeline restricted to a PartSubset aggregates exactly its partitions'
// rows, charges exactly their pages, prunes within the subset, and
// completes instantly when a query's needed partitions all live
// elsewhere.
func TestPartSubsetScan(t *testing.T) {
	ds := partitionedDataset(t, 3000, 4)
	parts := ds.Star.Partitions()
	subset := []int{0, 2}
	p := core.NewTestPipeline(t, ds.Star, core.Config{MaxConcurrent: 4}, core.ShardConfig{PartSubset: subset})
	p.Start()

	wantRows := parts[0].Heap.NumRows() + parts[2].Heap.NumRows()
	wantPages := int64(parts[0].Heap.NumPages() + parts[2].Heap.NumPages())
	q, err := query.ParseBind("SELECT COUNT(*) AS n FROM lineorder", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Admit(q)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Ints[0] != wantRows {
		t.Fatalf("subset COUNT(*) = %v, want %d (partitions 0 and 2 only)", res.Rows, wantRows)
	}
	if h.PagesScanned() != wantPages {
		t.Fatalf("subset scanned %d pages, partitions 0+2 hold %d", h.PagesScanned(), wantPages)
	}

	// Pruning within the subset: a query confined to partition 0's key
	// range must charge only partition 0's pages.
	narrow := fmt.Sprintf(
		"SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
		parts[0].MinKey, parts[0].MaxKey)
	qn, err := query.ParseBind(narrow, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	hn, err := p.Admit(qn)
	if err != nil {
		t.Fatal(err)
	}
	if res := hn.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := hn.PagesScanned(); got != int64(parts[0].Heap.NumPages()) {
		t.Fatalf("subset-pruned query scanned %d pages, partition 0 holds %d", got, parts[0].Heap.NumPages())
	}

	// A query needing only partition 1 — dealt to another shard — has
	// nothing to scan here: zero pages, instant empty result.
	other := fmt.Sprintf(
		"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
		parts[1].MinKey, parts[1].MaxKey)
	qo, err := query.ParseBind(other, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := p.Admit(qo)
	if err != nil {
		t.Fatal(err)
	}
	if res := ho.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if ho.PagesScanned() != 0 {
		t.Fatalf("foreign-partition query scanned %d pages on this subset", ho.PagesScanned())
	}
}

func TestSkippedPartitionsNotScanned(t *testing.T) {
	// With only narrow queries active, the continuous scan must skip
	// partitions nobody needs: total pages read stays near the needed
	// partition's size, not the full table.
	ds := partitionedDataset(t, 4000, 4)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})
	rng := rand.New(rand.NewSource(97))
	_ = rng

	narrow := fmt.Sprintf(
		"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
		ds.DateKeys[0], ds.DateKeys[10])
	q, err := query.ParseBind(narrow, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	stats := p.Stats()
	total := 0
	for _, part := range ds.Star.Partitions() {
		total += part.Heap.NumPages()
	}
	if stats.PagesRead >= int64(total) {
		t.Fatalf("scan read %d pages, table has %d: no partitions skipped", stats.PagesRead, total)
	}
}
