package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/query"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// TestSubmitWithSinkStreamsAllTuples: at every shard count the sink
// consumes every joined tuple, and the group finalizes it exactly once,
// after the last shard has reported — with nil on success, and with the
// typed shard error when a shard dies mid-query.
func TestSubmitWithSinkStreamsAllTuples(t *testing.T) {
	ds := dataset(t, 1000)
	q, err := query.ParseBind(
		"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 3; shards++ {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/fail=%v", shards, fail), func(t *testing.T) {
				cfg := shard.Config{Shards: shards, Core: core.Config{MaxConcurrent: 4}}
				if fail {
					fs, err := fault.Parse(fmt.Sprintf("seed=1;shard=%d;scan-fail=0", shards-1))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Fault = fs
				}
				g := startGroup(t, ds.Star, cfg)
				sink := &countingSink{}
				h, err := g.SubmitWithSink(q, sink)
				if err != nil {
					t.Fatal(err)
				}
				res := h.Wait()
				// Every shard reports before it recycles the slot, so once
				// Done closes no Finalize is still to come.
				<-h.Done()
				sink.mu.Lock()
				defer sink.mu.Unlock()
				if sink.finals != 1 {
					t.Fatalf("Finalize ran %d times, want once", sink.finals)
				}
				if fail {
					var sfe *shard.ShardFailedError
					if !errors.As(res.Err, &sfe) || !errors.As(sink.err, &sfe) {
						t.Fatalf("Wait: %v, Finalize: %v; want the typed shard failure for both", res.Err, sink.err)
					}
					return
				}
				if res.Err != nil || sink.err != nil {
					t.Fatalf("Wait: %v, Finalize: %v", res.Err, sink.err)
				}
				if sink.n != 1000 {
					t.Fatalf("sink consumed %d tuples, want 1000", sink.n)
				}
			})
		}
	}
}

type countingSink struct {
	mu     sync.Mutex
	n      int
	finals int
	err    error
}

func (s *countingSink) Consume(*expr.Joined) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *countingSink) Finalize(err error) {
	s.mu.Lock()
	s.finals++
	s.err = err
	s.mu.Unlock()
}

func TestExecuteGalaxy(t *testing.T) {
	// Join the fact table with itself on lo_orderdate as the pivot: for a
	// narrow date range, every pair of fact rows sharing an order date
	// joins. Validate against a direct nested-loop computation.
	ds := dataset(t, 400)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})

	rangeSQL := "SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 19920101 AND 19920301"
	qa, err := query.ParseBind(rangeSQL, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := query.ParseBind(rangeSQL, ds.Star)
	if err != nil {
		t.Fatal(err)
	}

	var pairs int
	err = shard.ExecuteGalaxy(p, p, qa, qb, ssb.LoOrderdate, ssb.LoOrderdate,
		func(fa, fb *expr.Joined) {
			if fa.Fact[ssb.LoOrderdate] != fb.Fact[ssb.LoOrderdate] {
				t.Error("galaxy join key mismatch")
			}
			pairs++
		})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: count pairs by date within the range.
	byDate := map[int64]int{}
	for i := int64(0); i < ds.Lineorder.Heap.NumRows(); i++ {
		row, err := ds.Lineorder.Heap.RowAt(i)
		if err != nil {
			t.Fatal(err)
		}
		d := row[ssb.LoOrderdate]
		if d >= 19920101 && d <= 19920301 {
			byDate[d]++
		}
	}
	want := 0
	for _, n := range byDate {
		want += n * n
	}
	if pairs != want {
		t.Fatalf("galaxy pairs = %d, want %d", pairs, want)
	}
}
