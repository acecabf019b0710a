package core_test

import (
	"sync"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

func TestSubmitWithSinkStreamsAllTuples(t *testing.T) {
	ds := dataset(t, 1000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q, err := query.ParseBind(
		"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{done: make(chan struct{})}
	h, err := p.SubmitWithSink(q, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	<-sink.done
	if sink.n != 1000 {
		t.Fatalf("sink consumed %d tuples, want 1000", sink.n)
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}
}

type countingSink struct {
	mu   sync.Mutex
	n    int
	err  error
	done chan struct{}
}

func (s *countingSink) Consume(*expr.Joined) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *countingSink) Finalize(err error) {
	s.err = err
	close(s.done)
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
