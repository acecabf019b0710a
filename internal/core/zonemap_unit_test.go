package core

import (
	"math/rand"
	"slices"
	"testing"

	"cjoin/internal/query"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
	"cjoin/internal/txn"
)

// TestFactScanSkipsPages exercises the page-level skip hook directly: a
// skipPage callback must keep the named pages off the device, rows from
// them must never be delivered, and the scan must count each physical
// skip exactly once.
func TestFactScanSkipsPages(t *testing.T) {
	star := partStar(t, []int64{1022}) // 511 rows/page → exactly 2 flushed pages
	s := newFactScan(star, nil, nil, nil)
	skipFirst := func(part, page int) bool { return page == 0 }
	vals := pageBuf(s)
	for i := 0; i < 4; i++ {
		n, part, page, _, err := s.nextPage(vals, nil, skipFirst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("scan starved with one live page")
		}
		if part != 0 || page != 1 {
			t.Fatalf("delivered (part=%d, page=%d), want (0, 1)", part, page)
		}
		for r := 0; r < n; r++ {
			if v := vals[r*2+1]; v < 511 {
				t.Fatalf("row %d from skipped page delivered", v)
			}
		}
		if k := s.takeSkipped(); k != 1 {
			t.Fatalf("cycle %d: %d pages counted skipped, want 1", i, k)
		}
	}
}

// TestNeedPagesCoverQualifyingRows is the zone-map soundness property,
// checked against the raw data: for randomized SSB workloads, every page
// holding a row that satisfies ALL of a query's derived column ranges
// must be marked needed in the query's page bitmap — including the
// unflushed tail page, which its own synopsis decides like any other. A
// page the bitmap drops while a qualifying row lives on it would silently
// corrupt results; this test fails before that can hide behind
// aggregation.
//
// The churn variant interleaves AppendFact/DeleteFact commits between
// queries and pins half of them at older snapshots: appended rows widen
// the tail's synopsis before their commit is published, deletions
// rewrite lo_xmax through the widen-only bounds path, and neither may
// ever prune a page holding a row visible to a query's snapshot — the
// MVCC face of the same soundness property.
func TestNeedPagesCoverQualifyingRows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts int
		churn bool
	}{
		{"raw-unpartitioned", 0, false},
		{"raw-partitioned", 3, false},
		// Only the unpartitioned heap takes writes: partitioned stars
		// are static.
		{"raw-unpartitioned-churn", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ssb.Generate(ssb.Config{
				SF: 1, FactRowsPerSF: 3000, Seed: 11, Partitions: tc.parts,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := NewTestPipeline(t, ds.Star, Config{MaxConcurrent: 8, Workers: 2}, ShardConfig{})
			p.Start()

			w := ssb.NewWorkload(ds, 0.05, 17)
			rng := rand.New(rand.NewSource(23))
			snapshots := []txn.Snapshot{ds.Txn.Begin()}
			var delCursor int64
			sawBitmap := false
			for i := 0; i < 12; i++ {
				if tc.churn && i > 0 {
					if _, err := ds.AppendFact(40, rng); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 5; k++ {
						if _, err := ds.DeleteFact(delCursor); err != nil {
							t.Fatal(err)
						}
						delCursor++
					}
					snapshots = append(snapshots, ds.Txn.Begin())
				}
				_, text := w.Next()
				q, err := query.ParseBind(text, ds.Star)
				if err != nil {
					t.Fatal(err)
				}
				// Half the churn queries evaluate at the latest snapshot,
				// half pinned at an arbitrary older one — the bitmap must
				// stay sound for queries admitted before later commits.
				q.Snapshot = snapshots[len(snapshots)-1]
				if tc.churn && i%2 == 1 {
					q.Snapshot = snapshots[rng.Intn(len(snapshots))]
				}
				h, err := p.Admit(q)
				if err != nil {
					t.Fatal(err)
				}
				res := h.Wait()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				// Twelve queries over eight slots: the result arrives
				// before Algorithm 2 has recycled the slot.
				<-h.Done()
				rq := h.rq
				if rq.pruneEmpty {
					if len(res.Rows) != 0 {
						t.Fatalf("pruneEmpty query returned %d rows: %s", len(res.Rows), text)
					}
					continue
				}
				if !slices.ContainsFunc(rq.needPages, func(ps pageSet) bool { return ps.bits != nil }) {
					continue // no page-level pruning: trivially sound
				}
				sawBitmap = true
				for li, part := range ds.Star.Partitions() {
					heap := part.Heap
					ncols := heap.NumCols()
					dst := make([]int64, heap.RowsPerPage()*ncols)
					scratch := make([]byte, storage.PageSize)
					for pg := 0; pg < heap.NumPages(); pg++ {
						n, err := heap.ReadPage(pg, dst, scratch)
						if err != nil {
							t.Fatal(err)
						}
						for r := 0; r < n; r++ {
							row := dst[r*ncols : (r+1)*ncols]
							if !txn.Visible(row[ssb.LoXmin], row[ssb.LoXmax], q.Snapshot) {
								continue
							}
							qualifies := true
							for _, cr := range rq.pruneRanges {
								if row[cr.Col] < cr.Min || row[cr.Col] > cr.Max {
									qualifies = false
									break
								}
							}
							if qualifies && !rq.pageNeeded(li, pg) {
								t.Fatalf("partition %d page %d holds a qualifying row visible at snapshot %d but is not needed: %s",
									li, pg, q.Snapshot, text)
							}
						}
					}
				}
			}
			if !sawBitmap {
				t.Fatal("no query produced a page bitmap; the property was never exercised")
			}
		})
	}
}
