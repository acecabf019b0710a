package shard_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

// lastReadSource records the base page of the latest read, so a test
// can see where the shards' scans stopped.
type lastReadSource struct {
	*storage.HeapFile
	last atomic.Int64
}

func (s *lastReadSource) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	s.last.Store(int64(page))
	return s.HeapFile.ReadPage(page, dst, scratch)
}

// TestShardRegistrationPositionInvariant is the registration-position
// relation (§3.3) through shard.Group at 1–3 shards: the same queries,
// admitted with each shard's cursor parked wherever an earlier pruned
// query left it, must equal internal/ref at their snapshot and charge
// the same pages summed over the shards at every parking place. The
// unpartitioned heap is page-strided over the shards, with whole pages
// only and with a partial tail page (its synopsis prunes it like any
// other page, so no parker stops at the heap's end); the 4-partition
// star is dealt.
func TestShardRegistrationPositionInvariant(t *testing.T) {
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
		ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: tc.rows, Seed: 61, Partitions: tc.parts})
		if err != nil {
			t.Fatal(err)
		}
		nk := len(ds.DateKeys)
		window := func(lo, hi int) string {
			return fmt.Sprintf("SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year ORDER BY d_year",
				ds.DateKeys[lo], ds.DateKeys[hi])
		}
		for n := 1; n <= 3; n++ {
			t.Run(fmt.Sprintf("%s/%d shards", tc.name, n), func(t *testing.T) {
				ccfg := core.Config{MaxConcurrent: 4, Workers: 2}
				var rec *lastReadSource
				if tc.parts == 0 {
					rec = &lastReadSource{HeapFile: ds.Lineorder.Heap}
					ccfg.FactSource = rec
				}
				g := openGroup(t, ds, n, ccfg)
				run := func(sql string) int64 {
					t.Helper()
					q := bind(t, ds, sql)
					h, err := g.Submit(q)
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
						t.Fatalf("diverges from reference at snapshot %d: %s", q.Snapshot, sql)
					}
					return h.PagesScanned()
				}
				for _, sql := range []string{
					"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
					window(nk*3/10, nk*6/10),
				} {
					var charged []int64
					parked := map[int64]bool{}
					for i := 0; i < 5; i++ {
						lo := nk * i / 5
						run(window(lo, lo+nk/40))
						if rec != nil {
							parked[rec.last.Load()] = true
						}
						charged = append(charged, run(sql))
					}
					if rec != nil && len(parked) < 4 {
						t.Fatalf("the scans stopped at only %d distinct pages: %v", len(parked), parked)
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
}
