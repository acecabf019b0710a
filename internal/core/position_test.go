package core

import (
	"fmt"
	"testing"

	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

// TestRegistrationPositionInvariant is the first metamorphic relation of
// §3.3: a query latches onto the continuous scan wherever it stands, so
// its answer and its charge must not depend on the scan position at
// registration. The same queries are admitted with the cursor parked at
// five different pages, over an unpartitioned heap and a 4-partition
// star. Each admission must equal internal/ref at its snapshot and
// charge the same number of pages as every other admission. An earlier
// pruned query parks the cursor: its countdown leaves it just past its
// last needed page. The unpartitioned heap runs with whole pages only and
// with a partial tail page, whose synopsis prunes it like any other page,
// so each parker parks past its own window, never at the heap's end.
func TestRegistrationPositionInvariant(t *testing.T) {
	tiny, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 10, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rpp := tiny.Lineorder.Heap.RowsPerPage()
	for _, tc := range []struct {
		name        string
		rows, parts int
	}{
		{"unpartitioned", 75 * rpp, 0},
		{"unpartitioned, partial tail", 75*rpp + rpp/3, 0},
		{"4 partitions", 4000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: tc.rows, Seed: 61, Partitions: tc.parts})
			if err != nil {
				t.Fatal(err)
			}
			p := NewTestPipeline(t, ds.Star, Config{MaxConcurrent: 4, Workers: 2}, ShardConfig{})
			p.Start()

			nk := len(ds.DateKeys)
			bind := func(sql string) *query.Bound {
				t.Helper()
				q, err := query.ParseBind(sql, ds.Star)
				if err != nil {
					t.Fatal(err)
				}
				q.Snapshot = ds.Txn.Begin()
				return q
			}
			window := func(lo, hi int) string {
				return fmt.Sprintf("SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
					ds.DateKeys[lo], ds.DateKeys[hi])
			}
			run := func(q *query.Bound) int64 {
				t.Helper()
				h, err := p.Admit(q)
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
					t.Fatalf("diverges from reference at snapshot %d: %s", q.Snapshot, q.SQL)
				}
				<-h.Done()
				return h.PagesScanned()
			}

			for _, sql := range []string{
				// Nothing to prune: every page, from the parked cursor
				// round to it again.
				"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
				// A window across the middle of the date span: pruned
				// pages (and, partitioned, whole partitions) on both sides
				// of most parking places.
				window(nk*3/10, nk*6/10),
			} {
				var charged []int64
				parked := map[[2]int]bool{}
				for i := 0; i < 5; i++ {
					lo := nk * i / 5
					run(bind(window(lo, lo+nk/40)))
					// The parker's result has been delivered, so the
					// Preprocessor has parked idle since its last page.
					parked[[2]int{p.pp.scan.partIdx, p.pp.scan.page}] = true
					charged = append(charged, run(bind(sql)))
				}
				if len(parked) < 4 {
					t.Fatalf("the cursor parked at only %d distinct pages: %v", len(parked), parked)
				}
				for i, c := range charged {
					if c != charged[0] || c == 0 {
						t.Fatalf("%s: charged %v pages by parking place (#%d differs or is zero)", sql, charged, i)
					}
				}
			}
		})
	}
}
