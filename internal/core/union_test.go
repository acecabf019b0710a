package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

// recordingGate wraps one scan-local partition's source: every read
// waits for a token on gate (or for the gate to close) and records the
// (partition, page) it delivered.
type recordingGate struct {
	PageSource
	part  int
	gate  chan struct{}
	mu    *sync.Mutex
	reads *[][2]int
}

func (g *recordingGate) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	*g.reads = append(*g.reads, [2]int{g.part, page})
	g.mu.Unlock()
	return g.PageSource.ReadPage(page, dst, scratch)
}

// TestScanReadsUnionOfResidentSets is §5's "sequential scan of the union
// of identified partitions" at page grain: while several queries are
// resident, the continuous scan reads exactly the union of their page
// sets, each page once, and nothing else. A gate holds the scan so three
// queries are resident at once: one whose set has no zone-map bitmap and
// two with bitmaps. On the unpartitioned heap each is cut at a different
// heap length (rows are appended between the admissions, and once more
// after the last cut, so pages past every cut exist and must not be
// read). A partitioned star is static, so on the 4-partition star the
// three are cut at one length and differ by partition and page pruning:
// the set without a bitmap is a partition-aligned window. The later
// queries' windows avoid the first pages the scan reads before they are
// registered, so one pass covers every set. Each answer must equal
// internal/ref at its snapshot. A pruned query first parks the cursor
// about 30 % into the date span, so the pass runs over the heap's end and
// wraps. The unpartitioned heap starts with whole pages only and with a
// partial tail page, which its synopsis prunes like any other page.
func TestScanReadsUnionOfResidentSets(t *testing.T) {
	tiny, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 10, Seed: 29})
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
			ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: tc.rows, Seed: 29, Partitions: tc.parts})
			if err != nil {
				t.Fatal(err)
			}
			p := NewTestPipeline(t, ds.Star, Config{MaxConcurrent: 4, Workers: 2}, ShardConfig{})
			p.Start()

			gate := make(chan struct{})
			var (
				mu    sync.Mutex
				reads [][2]int
				once  sync.Once
			)
			open := func() { once.Do(func() { close(gate) }) }
			t.Cleanup(open) // before the pipeline's Stop, which runs later

			nk := len(ds.DateKeys)
			window := func(lo, hi int) *query.Bound {
				t.Helper()
				q, err := query.ParseBind(fmt.Sprintf(
					"SELECT SUM(lo_revenue), d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
					ds.DateKeys[lo], ds.DateKeys[hi]), ds.Star)
				if err != nil {
					t.Fatal(err)
				}
				q.Snapshot = ds.Txn.Begin()
				return q
			}
			// activated reports whether q's run has its sets cut and its
			// registration command about to be sent.
			activated := func(q *query.Bound) bool {
				p.pmMu.Lock()
				defer p.pmMu.Unlock()
				for _, rq := range p.live {
					if rq.q == q {
						return true
					}
				}
				return false
			}
			// admit registers q while the scan is held. Once the run is
			// activated it lets pages through one at a time, each followed
			// by a pause for the Preprocessor to take the registration
			// before the next page.
			admit := func(q *query.Bound) *TestQuery {
				t.Helper()
				ch := make(chan *TestQuery, 1)
				go func() {
					h, err := p.Admit(q)
					if err != nil {
						t.Error(err)
					}
					ch <- h
				}()
				for !activated(q) && len(ch) == 0 {
					time.Sleep(10 * time.Microsecond)
				}
				for {
					select {
					case h := <-ch:
						if h == nil {
							t.FailNow()
						}
						return h
					case gate <- struct{}{}:
						time.Sleep(time.Millisecond)
					}
				}
			}
			rng := rand.New(rand.NewSource(3))
			appendPages := func() {
				t.Helper()
				if tc.parts > 0 {
					return
				}
				if _, err := ds.AppendFact(2*ds.Lineorder.Heap.RowsPerPage()+5, rng); err != nil {
					t.Fatal(err)
				}
			}

			// Park the cursor about 30 % into the date span: the parker's
			// countdown leaves it just past its last needed page, so the
			// pass below runs from there over the heap's end (and, on the
			// unpartitioned heap, the pages appended after every cut),
			// wraps, and comes back.
			parker := window(nk/4, nk*3/10)
			h, err := p.Admit(parker)
			if err != nil {
				t.Fatal(err)
			}
			if res := h.Wait(); res.Err != nil {
				t.Fatal(res.Err)
			}
			<-h.Done()
			before := p.Stats().PagesRead

			// The Preprocessor has parked idle since the parker's last
			// page and touches its scan again only after the next
			// admission's command, so the sources can be swapped here.
			for i := range p.pp.scan.parts {
				sp := &p.pp.scan.parts[i]
				sp.src = &recordingGate{PageSource: sp.src, part: i, gate: gate, mu: &mu, reads: &reads}
			}

			var qs []*query.Bound
			var hs []*TestQuery
			if tc.parts > 0 {
				// Exactly partition 1's dates: every page of it intersects,
				// so its set has no bitmap.
				qs = append(qs, window(nk/4, nk/2-1))
			} else {
				qs = append(qs, window(0, nk-1))
			}
			// The Preprocessor is idle, so the first registration needs
			// no page to pass.
			h, err = p.Admit(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
			for _, w := range [][2]int{{nk * 4 / 10, nk * 6 / 10}, {nk * 8 / 10, nk * 9 / 10}} {
				appendPages()
				qs = append(qs, window(w[0], w[1]))
				hs = append(hs, admit(qs[len(qs)-1]))
			}
			appendPages()
			open()

			for i, h := range hs {
				res := h.Wait()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				want, err := ref.Execute(qs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !ref.ResultsEqual(res.Rows, want) {
					t.Fatalf("query %d diverges from reference at snapshot %d", i, qs[i].Snapshot)
				}
				<-h.Done()
			}

			union := map[[2]int]bool{}
			for i, h := range hs {
				var needed int64
				bitmap := false
				for part, ps := range h.rq.needPages {
					for page := 0; page < ps.frozen; page++ {
						if h.rq.pageNeeded(part, page) {
							union[[2]int{part, page}] = true
						}
					}
					needed += ps.needed
					bitmap = bitmap || ps.bits != nil
				}
				if (i == 0) == bitmap {
					t.Fatalf("query %d: bitmap %v; the test needs exactly the first set without one", i, bitmap)
				}
				if got := h.PagesScanned(); got != needed {
					t.Fatalf("query %d charged %d pages, its set holds %d", i, got, needed)
				}
			}
			if tc.parts == 0 {
				f0, f1, f2 := hs[0].rq.needPages[0].frozen, hs[1].rq.needPages[0].frozen, hs[2].rq.needPages[0].frozen
				if !(f0 < f1 && f1 < f2 && f2 < ds.Lineorder.Heap.NumPages()) {
					t.Fatalf("cuts at %d, %d, %d pages, heap now %d; want four distinct, growing lengths", f0, f1, f2, ds.Lineorder.Heap.NumPages())
				}
			}

			mu.Lock()
			defer mu.Unlock()
			seen := map[[2]int]bool{}
			for _, r := range reads {
				if seen[r] {
					t.Fatalf("page %v read twice in one pass", r)
				}
				if !union[r] {
					t.Fatalf("page %v read, but no resident set holds it", r)
				}
				seen[r] = true
			}
			if len(seen) != len(union) {
				t.Fatalf("scan read %d pages, the union of the resident sets holds %d", len(seen), len(union))
			}
			if got := p.Stats().PagesRead - before; got != int64(len(union)) {
				t.Fatalf("PagesRead = %d, the union of the resident sets holds %d", got, len(union))
			}
		})
	}
}
