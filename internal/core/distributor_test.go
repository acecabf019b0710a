package core

import (
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/query"
)

// TestDistributorRestoresSequenceOrder delivers batches out of order and
// verifies the reorder buffer enforces §3.3.3: a query-start control
// tuple is processed before the data that follows it and the query's end
// control tuple comes last, no matter how Stage workers interleaved the
// batches.
func TestDistributorRestoresSequenceOrder(t *testing.T) {
	star := miniStar(t, 10)
	p := NewTestPipeline(t, star, Config{MaxConcurrent: 8}, ShardConfig{})
	// Hand-drive a distributor without starting the pipeline goroutines.
	in := make(chan *batch, 16)
	d := newDistributor(p, in)

	q, err := query.ParseBind("SELECT COUNT(*) FROM f, d WHERE fk = k", star)
	if err != nil {
		t.Fatal(err)
	}
	tq := newTestQuery(p, 3)
	rq := &runningQuery{p: p, slot: 3, q: q, to: tq}

	mkData := func(seq uint64, rows int) *batch {
		b := newBatch(rows, 2, bitvec.Words(8), 1)
		b.pooled = false // hand-made: must not enter the pipeline's pool
		b.seq = seq
		for i := 0; i < rows; i++ {
			row, bv := b.push()
			row[0] = int64(i)
			bv.Set(3)
		}
		return b
	}

	// Sequence: 0=start ctrl, 1..3=data, 4=end ctrl — delivered shuffled.
	batches := []*batch{
		mkData(2, 4),
		ctrlBatch(4, ctrlEnd, rq, nil),
		mkData(1, 5),
		ctrlBatch(0, ctrlStart, rq, nil),
		mkData(3, 6),
	}
	for _, b := range batches {
		in <- b
	}
	close(in)
	d.run()

	res := tq.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Ints[0] != 15 {
		t.Fatalf("reordered aggregation produced %v, want COUNT=15", res.Rows)
	}
	// The cleanup notification must have been queued exactly once.
	select {
	case got := <-p.cleanupCh:
		if got != rq {
			t.Fatal("wrong query in cleanup queue")
		}
	default:
		t.Fatal("no cleanup notification")
	}
}

// TestIdleScanParks verifies the always-on pipeline stops consuming the
// device while no queries are registered.
func TestIdleScanParks(t *testing.T) {
	star := miniStar(t, 5)
	for i := int64(0); i < 2000; i++ {
		star.Fact.Heap.Append([]int64{i % 5, i})
	}
	p := NewTestPipeline(t, star, Config{MaxConcurrent: 4}, ShardConfig{})
	p.Start()

	q, err := query.ParseBind("SELECT COUNT(*) FROM f, d WHERE fk = k", star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Admit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	p.Quiesce()
	before := p.Stats().PagesRead
	// With no queries, the Preprocessor must park: no further page reads.
	for i := 0; i < 50; i++ {
		if got := p.Stats().PagesRead; got != before {
			t.Fatalf("scan kept reading while idle: %d -> %d", before, got)
		}
	}
}
