package core_test

import (
	"fmt"
	"sync"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/query"
)

// TestProgressExactWhenPassedOver reads progress from other goroutines
// while the scan delivers pages that are charged to some resident queries
// and pass over others. A query's page count comes off the scan's shared
// page clock until the first page that passes it over and from its own
// counter afterwards (runningQuery.pagesScanned); across that hand-over,
// and across the freeze at completion, every reading must be
// non-decreasing and the final one must be exactly the pages of the
// partitions the query needed.
func TestProgressExactWhenPassedOver(t *testing.T) {
	ds := partitionedDataset(t, 20000, 4)
	parts := ds.Star.Partitions()
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})

	// Each window is a union of whole partitions' key ranges, so every
	// page of a needed partition intersects it and the zone maps prune
	// nothing inside: the expected count is a sum of partition sizes.
	cases := []struct {
		name     string
		from, to int64
		want     int64
	}{
		{"first partition", parts[0].MinKey, parts[0].MaxKey, int64(parts[0].Heap.NumPages())},
		{"last partition", parts[3].MinKey, parts[3].MaxKey, int64(parts[3].Heap.NumPages())},
		{"every partition", parts[0].MinKey, parts[3].MaxKey, 0},
	}
	for _, pt := range parts {
		cases[2].want += int64(pt.Heap.NumPages())
	}

	handles := make([]core.Handle, len(cases))
	for i, c := range cases {
		q, err := query.ParseBind(fmt.Sprintf(
			"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
			c.from, c.to), ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		if handles[i], err = p.Submit(q); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(name string, h core.Handle, want int64) {
			defer wg.Done()
			var prev int64
			for {
				select {
				case <-h.Done():
					if got := h.PagesScanned(); got != want {
						t.Errorf("%s: %d pages charged, want %d", name, got, want)
					}
					if got := h.Progress(); got != 1 {
						t.Errorf("%s: final progress %v", name, got)
					}
					return
				default:
				}
				got := h.PagesScanned()
				if got < prev || got > want {
					t.Errorf("%s: pages charged went %d -> %d (of %d)", name, prev, got, want)
					return
				}
				prev = got
			}
		}(cases[i].name, h, cases[i].want)
	}
	for i, h := range handles {
		if res := h.Wait(); res.Err != nil {
			t.Fatal(cases[i].name, res.Err)
		}
	}
	wg.Wait()
}
