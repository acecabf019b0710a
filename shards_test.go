package cjoin

import (
	"fmt"
	"reflect"
	"testing"

	"cjoin/internal/ref"
)

// TestOpenPipelineShardsMatchReference: the public API answers exactly
// what internal/ref does at every shard count — 0 and 1 are one shard,
// 2 and 3 page-stride a single heap or deal a range-partitioned star's
// partitions.
func TestOpenPipelineShardsMatchReference(t *testing.T) {
	for _, parts := range []int{0, 4} {
		w, err := OpenSSB(SSBOptions{SF: 1, FactRowsPerSF: 1500, Seed: 5, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		wl := w.NewWorkload(0.1, 7)
		sqls := []string{"SELECT COUNT(*) AS n, AVG(lo_quantity) AS aq FROM lineorder"}
		for i := 0; i < 6; i++ {
			_, sql := wl.Next()
			sqls = append(sqls, sql)
		}
		for _, shards := range []int{0, 1, 2, 3} {
			p, err := w.OpenPipeline(PipelineOptions{MaxConcurrent: 8, Workers: 2, Shards: shards})
			if err != nil {
				t.Fatalf("partitions=%d shards=%d: %v", parts, shards, err)
			}
			for _, sql := range sqls {
				q, err := p.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.Wait()
				if err != nil {
					t.Fatal(err)
				}
				rows, err := ref.Execute(q.bound)
				if err != nil {
					t.Fatal(err)
				}
				if want := w.decodeResults(q.bound, rows); !reflect.DeepEqual(got, want) {
					t.Fatalf("partitions=%d shards=%d diverges from ref: %s\n got:\n%s\nwant:\n%s",
						parts, shards, sql, got.Format(), want.Format())
				}
			}
			p.Close()
		}
	}
}

// TestGalaxyJoinAnyShards: a galaxy join's star sub-plans run on every
// shard of the group and the shards' tuples meet in one pivot join, so
// the joined pairs are the same multiset at one shard and at two.
func TestGalaxyJoinAnyShards(t *testing.T) {
	w, err := OpenSSB(SSBOptions{SF: 1, FactRowsPerSF: 1000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	keys := w.DateKeys()
	window := fmt.Sprintf("SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d",
		keys[0], keys[60])
	// id runs inside emit, on a Distributor goroutine: t.Error, not Fatal.
	id := func(r FactRow) [2]int64 {
		k, err := r.Col("lo_orderkey")
		if err != nil {
			t.Error(err)
		}
		l, err := r.Col("lo_linenumber")
		if err != nil {
			t.Error(err)
		}
		return [2]int64{k.Int(), l.Int()}
	}
	pairs := func(shards int) map[[2][2]int64]int {
		p, err := w.OpenPipeline(PipelineOptions{MaxConcurrent: 8, Workers: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		out := make(map[[2][2]int64]int)
		err = p.GalaxyJoin(window+" AND lo_extendedprice >= 5000", window, "lo_orderdate", "lo_orderdate",
			func(a, b FactRow) { out[[2][2]int64{id(a), id(b)}]++ })
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return out
	}
	one, two := pairs(1), pairs(2)
	if len(one) == 0 {
		t.Fatal("the galaxy join produced no pairs; the window selects nothing")
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("pair multisets differ: %d distinct pairs at one shard, %d at two", len(one), len(two))
	}
}
