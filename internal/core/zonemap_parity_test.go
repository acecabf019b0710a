package core_test

import (
	"fmt"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

// TestZoneMapParityRandomized is the end-to-end soundness property:
// randomized SSB workloads with zone maps on must be bit-exact against
// the internal/ref ground truth, over partitioned and unpartitioned
// layouts. Each dataset size is
// chosen to leave an unflushed tail page, so the conservative tail path
// is always on the line.
func TestZoneMapParityRandomized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts int
	}{
		{"raw-unpartitioned", 0},
		{"raw-partitioned", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ssb.Generate(ssb.Config{
				SF: 1, FactRowsPerSF: 2800, Seed: 29, Partitions: tc.parts,
			})
			if err != nil {
				t.Fatal(err)
			}
			fact := ds.Star.Partitions()
			if last := fact[len(fact)-1].Heap; last.FlushedPages() >= last.NumPages() {
				t.Fatal("dataset has no tail page; the conservative tail path is untested")
			}
			p := startPipeline(t, ds, core.Config{MaxConcurrent: 16, Workers: 2})
			for _, sel := range []float64{0.01, 0.1} {
				for _, q := range bindWorkload(t, ds, 8, sel, 31) {
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
						t.Fatalf("zone-mapped query diverges from reference: %s", q.SQL)
					}
				}
			}
		})
	}
}

// TestZoneMapPruningUnpartitioned verifies the new capability §5 could
// not provide: on an UNPARTITIONED heap — where partition pruning has
// nothing to prune — a narrow date-window query must be charged
// strictly fewer pages than the full table (at least the 30% the
// acceptance bar demands; date clustering makes it far more), with the
// reference answer, while an unrestricted query still pays the full
// table.
func TestZoneMapPruningUnpartitioned(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	narrow := fmt.Sprintf(
		"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
		ds.DateKeys[0], ds.DateKeys[len(ds.DateKeys)/8])
	wide := "SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"

	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	run := func(sql string) int64 {
		q, err := query.ParseBind(sql, ds.Star)
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
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("diverges from reference: %s", sql)
		}
		return h.PagesScanned()
	}

	total := int64(ds.Star.Partitions()[0].Heap.NumPages())
	if pages := run(narrow); pages*10 > total*7 { // ≥ 30% reduction
		t.Fatalf("pruning ineffective: %d of %d pages charged", pages, total)
	}
	if pages := run(wide); pages != total {
		t.Fatalf("unrestricted query charged %d pages, want the full table (%d)", pages, total)
	}
}

// TestZoneMapTailPageQueried pins the tail-page contract end to end: a
// query whose only qualifying rows live on the unflushed tail page (the
// fact table is date-sorted, so the max date key lands there) must
// return them — the tail has no frozen synopsis and is never pruned.
func TestZoneMapTailPageQueried(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 2800, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	heap := ds.Star.Partitions()[0].Heap
	if heap.FlushedPages() >= heap.NumPages() {
		t.Fatal("dataset has no tail page")
	}
	// The date key of the very last fact row: date-sorted load puts it on
	// the tail page.
	lastRow, err := heap.RowAt(heap.NumRows() - 1)
	if err != nil {
		t.Fatal(err)
	}
	tailKey := lastRow[ssb.LoOrderdate]
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q, err := query.ParseBind(fmt.Sprintf(
		"SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
		tailKey, tailKey), ds.Star)
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
	want, err := ref.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || want[0].Ints[0] == 0 {
		t.Fatal("test setup broken: no rows carry the tail key")
	}
	if !ref.ResultsEqual(res.Rows, want) {
		t.Fatalf("tail-page rows lost: got %v, want %v", res.Rows, want)
	}
}
