package shard_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/fault"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// TestShardParityUnderChurn is the HTAP face of the parity property:
// randomized append/delete commits keep landing on the shared heap while
// queries run against a single pipeline and strided groups of 2 and 3
// shards. Every query's snapshot is stamped at submit, and its results
// must stay bit-exact against internal/ref evaluated at that same
// snapshot — MVCC visibility, not scan timing, decides what each query
// sees. Page-count parity is deliberately NOT asserted here: the heap
// grows between submissions, so executors admit the same query over
// different geometries.
func TestShardParityUnderChurn(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}

	single := openGroup(t, ds, 1, ccfg)

	groups := make(map[int]*shard.Group)
	for _, n := range []int{2, 3} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		groups[n] = g
	}

	// Writer: bursts of appends plus sequential deletes (a row is never
	// deleted twice — re-stamping xmax with a later commit id would
	// resurrect it for intermediate snapshots).
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(99))
		var delCursor int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.AppendFact(wrng.Intn(30)+1, wrng); err != nil {
				writerErr = err
				return
			}
			for k := 0; k < wrng.Intn(8)+1; k++ {
				if _, err := ds.DeleteFact(delCursor); err != nil {
					writerErr = err
					return
				}
				delCursor++
			}
			time.Sleep(time.Millisecond)
		}
	}()

	w := ssb.NewWorkload(ds, 0.05, 13)
	for qi := 0; qi < 15; qi++ {
		_, text := w.Next()
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, text, err)
		}
		// The submit-time snapshot decides visibility for every executor
		// and for the reference run below, no matter how much the writer
		// commits while the scans are in flight.
		b.Snapshot = ds.Txn.Begin()

		h, err := single.Submit(b)
		if err != nil {
			t.Fatalf("query %d single submit: %v", qi, err)
		}
		handles := map[int]core.Handle{}
		for n, g := range groups {
			gh, err := g.Submit(b)
			if err != nil {
				t.Fatalf("query %d group(%d) submit: %v", qi, n, err)
			}
			handles[n] = gh
		}

		want, err := ref.Execute(b)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}
		sres := h.Wait()
		if sres.Err != nil {
			t.Fatalf("query %d single: %v", qi, sres.Err)
		}
		if !ref.ResultsEqual(sres.Rows, want) {
			t.Fatalf("query %d: single pipeline diverges from ref at snapshot %d\nquery: %s\n got: %s\nwant: %s",
				qi, b.Snapshot, text, dump(sres.Rows), dump(want))
		}
		for n, gh := range handles {
			gres := gh.Wait()
			if gres.Err != nil {
				t.Fatalf("query %d group(%d): %v", qi, n, gres.Err)
			}
			if !ref.ResultsEqual(gres.Rows, want) {
				t.Fatalf("query %d: %d-shard group diverges from ref at snapshot %d\nquery: %s\n got: %s\nwant: %s",
					qi, n, b.Snapshot, text, dump(gres.Rows), dump(want))
			}
		}
	}

	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
}

// TestShardPageParityUnderWriter extends the pruning-parity invariant
// to a growing heap. A writer keeps appending bursts of rows that share
// one date — so appended pages, the tail among them, carry narrow
// synopses that a date window can prune — and stamping deletes (which
// widen pages' synopses) while narrow date-window queries run; it is
// held off only while one query is being admitted to the single
// pipeline and to every group, so all of them cut their page bitmaps
// over the same heap geometry and synopses. Once a query is resident,
// the test appends rows dated inside and outside its window, onto the
// tail page it was cut over. Injected read stalls keep each query
// resident while the writer goes on. Rows appended after the cut are
// invisible to the query, and each query runs alone on its executors,
// so no executor charges more than the pages present at the cut: an
// executor's per-shard pages read sum to exactly the pages its handle
// charged, and the per-shard charged pages still sum to the single
// pipeline's — with every answer exact at the query's snapshot.
func TestShardPageParityUnderWriter(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 8, Workers: 2}
	// Reads stall now and then, so each query stays resident long enough
	// for the writer's pages to land past its cut while it runs.
	stall := &fault.Spec{Seed: 3, Shard: -1, ScanStallProb: 0.3, ScanStallDur: 500 * time.Microsecond, ScanFailAt: -1}
	open := func(n int) *shard.Group {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg, Fault: stall})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		return g
	}
	single := open(1)
	groups := map[int]*shard.Group{2: open(2), 3: open(3)}

	fact, err := ds.Star.WritableFact()
	if err != nil {
		t.Fatal(err)
	}
	template, err := ds.Lineorder.Heap.RowAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// appendDated commits n copies of a loaded row, all dated date.
	appendDated := func(n int, date int64) error {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = slices.Clone(template)
			rows[i][ssb.LoOrderdate] = date
		}
		_, err := ds.Txn.Append(fact, rows)
		return err
	}
	nk := len(ds.DateKeys)

	var admitting sync.Mutex // held by the test while it admits one query
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(5))
		var delCursor int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			admitting.Lock()
			err := appendDated(wrng.Intn(40)+10, ds.DateKeys[wrng.Intn(nk)])
			if err == nil {
				_, err = ds.DeleteFact(delCursor)
				delCursor += 7 // spread the widenings; slower than the heap grows
			}
			admitting.Unlock()
			if err != nil {
				writerErr = err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rng := rand.New(rand.NewSource(23))
	pruned, tailPruned := 0, 0
	for qi := 0; qi < 20; qi++ {
		lo := rng.Intn(nk - nk/20)
		text := fmt.Sprintf(
			"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
			ds.DateKeys[lo], ds.DateKeys[lo+nk/20])
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}

		admitting.Lock()
		b.Snapshot = ds.Txn.Begin()
		pagesAtCut := int64(ds.Lineorder.Heap.NumPages())
		// The pages whose date synopsis meets the window, counted per
		// cell while the writer is held off: exactly what the cut keeps.
		dlo, dhi := ds.DateKeys[lo], ds.DateKeys[lo+nk/20]
		var meets int64
		for pg := 0; pg < int(pagesAtCut); pg++ {
			if min, max, _ := ds.Lineorder.Heap.PageColBounds(pg, ssb.LoOrderdate); max >= dlo && min <= dhi {
				meets++
			} else if pg == ds.Lineorder.Heap.FlushedPages() {
				tailPruned++ // the partial tail page
			}
		}
		readBefore := map[int]int64{1: single.Stats().PagesRead}
		for n, g := range groups {
			readBefore[n] = g.Stats().PagesRead
		}
		h, err := single.Submit(b)
		handles := map[int]core.Handle{}
		for n, g := range groups {
			if err == nil {
				handles[n], err = g.Submit(b)
			}
		}
		admitting.Unlock()
		if err != nil {
			t.Fatalf("query %d submit: %v", qi, err)
		}
		// The query is resident: land rows inside and outside its window.
		for _, date := range []int64{ds.DateKeys[lo+nk/40], ds.DateKeys[(lo+nk/2)%nk]} {
			if err := appendDated(3, date); err != nil {
				t.Fatalf("query %d append: %v", qi, err)
			}
		}

		// checkReads: once the query's slot is recycled on every shard,
		// the executor's scans have read exactly what it charged.
		checkReads := func(n int, g *shard.Group, h core.Handle) {
			t.Helper()
			<-h.Done()
			if read := g.Stats().PagesRead - readBefore[n]; read != h.PagesScanned() {
				t.Fatalf("query %d: %d-shard executor read %d pages, charged %d (%d pages at cut)",
					qi, n, read, h.PagesScanned(), pagesAtCut)
			}
		}

		want, err := ref.Execute(b)
		if err != nil {
			t.Fatalf("query %d ref: %v", qi, err)
		}
		sres := h.Wait()
		if sres.Err != nil {
			t.Fatalf("query %d single: %v", qi, sres.Err)
		}
		if !ref.ResultsEqual(sres.Rows, want) {
			t.Fatalf("query %d: single pipeline diverges from ref at snapshot %d", qi, b.Snapshot)
		}
		checkReads(1, single, h)
		if h.PagesScanned() < pagesAtCut {
			pruned++
		}
		if h.PagesScanned() > pagesAtCut {
			t.Fatalf("query %d: charged %d pages, the heap had %d when its bitmap was cut", qi, h.PagesScanned(), pagesAtCut)
		}
		if h.PagesScanned() != meets {
			t.Fatalf("query %d: charged %d pages, %d of the %d at the cut meet its window", qi, h.PagesScanned(), meets, pagesAtCut)
		}
		for n, gh := range handles {
			gres := gh.Wait()
			if gres.Err != nil {
				t.Fatalf("query %d group(%d): %v", qi, n, gres.Err)
			}
			if !ref.ResultsEqual(gres.Rows, want) {
				t.Fatalf("query %d: %d-shard group diverges from ref at snapshot %d", qi, n, b.Snapshot)
			}
			if got := gh.PagesScanned(); got != h.PagesScanned() {
				t.Fatalf("query %d: %d-shard group charged %d pages, single pipeline %d (%d pages at cut)",
					qi, n, got, h.PagesScanned(), pagesAtCut)
			}
			checkReads(n, groups[n], gh)
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if pruned < 15 {
		t.Fatalf("only %d of 20 queries were page-pruned; the bitmap path was barely exercised", pruned)
	}
	if tailPruned < 5 {
		t.Fatalf("only %d of 20 cuts found the tail page outside the window; the tail's synopsis was barely exercised", tailPruned)
	}
}
