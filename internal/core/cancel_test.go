package core_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// gatedSource is a PageSource whose page reads block on a gate channel,
// giving tests deterministic control over scan progress. Closing the
// gate releases all remaining reads. Rows are all-zero, so with hidden
// MVCC columns every row is visible to every snapshot.
type gatedSource struct {
	cols  int
	rows  int
	pages int
	gate  chan struct{}
}

func (g *gatedSource) NumCols() int     { return g.cols }
func (g *gatedSource) RowsPerPage() int { return g.rows }
func (g *gatedSource) NumPages() int    { return g.pages }

func (g *gatedSource) ReadPage(page int, dst []int64, _ []byte) (int, error) {
	<-g.gate
	n := g.rows * g.cols
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	return g.rows, nil
}

// gatedPipeline starts a one-shard group over an SSB schema whose
// continuous scan is fed by a gated source of `pages` pages.
func gatedPipeline(t *testing.T, maxConc, pages int) (*shard.Group, *ssb.Dataset, *gatedSource) {
	t.Helper()
	ds := dataset(t, 100)
	gs := &gatedSource{
		cols:  ds.Lineorder.Heap.NumCols(),
		rows:  8,
		pages: pages,
		gate:  make(chan struct{}, 1024),
	}
	g := startGroup(t, ds.Star, shard.Config{Shards: 1, Core: core.Config{MaxConcurrent: maxConc, Workers: 2, FactSource: gs}})
	// Cleanups run last-in first-out: release any blocked read before
	// startGroup's Stop.
	t.Cleanup(func() { close(gs.gate) })
	return g, ds, gs
}

func countStar(t *testing.T, ds *ssb.Dataset) *query.Bound {
	t.Helper()
	b, err := query.ParseBind("SELECT COUNT(*) AS n FROM lineorder", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitActive(t *testing.T, p *shard.Group, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.ActiveQueries() != want {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveQueries stuck at %d, want %d", p.ActiveQueries(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCancelBeforeAnyProgress cancels a freshly submitted query whose
// scan has made zero progress: the caller unblocks immediately with
// ErrQueryCanceled and the slot is recycled.
func TestCancelBeforeAnyProgress(t *testing.T) {
	p, ds, gs := gatedPipeline(t, 2, 4)
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	if h.PagesScanned() != 0 {
		t.Fatalf("pages scanned %d before gate released", h.PagesScanned())
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false on a running query")
	}
	res := h.Wait()
	if !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("result %v", res.Err)
	}
	// The preprocessor is blocked inside the first gated page read;
	// releasing it lets the scan reach the next batch boundary, where the
	// cancel is consumed and the slot recycled.
	gs.gate <- struct{}{}
	waitActive(t, p, 0)
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done never closed")
	}
}

// TestCancelMidScan releases part of the scan, cancels, and verifies the
// slot frees at the next page boundary while a concurrent query keeps
// running to a correct result.
func TestCancelMidScan(t *testing.T) {
	p, ds, gs := gatedPipeline(t, 2, 4)
	victim, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	gs.gate <- struct{}{}
	gs.gate <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for victim.PagesScanned() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stuck at %d pages", victim.PagesScanned())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if !victim.Cancel() {
		t.Fatal("cancel failed")
	}
	if res := victim.Wait(); !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("result %v", res.Err)
	}
	// One more page lets the preprocessor reach its command check and
	// retire the query.
	gs.gate <- struct{}{}
	waitActive(t, p, 0)

	// The slot is reusable: a fresh query over the remaining (unbounded)
	// gate completes with the right count.
	survivor, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		gs.gate <- struct{}{}
	}
	res := survivor.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := int64(4 * 8); len(res.Rows) != 1 || res.Rows[0].Ints[0] != want {
		t.Fatalf("survivor rows %v, want count %d", res.Rows, want)
	}
}

// TestDoubleCancel: the second cancel (and a cancel after completion)
// reports false, and the slot remains reusable afterward.
func TestDoubleCancel(t *testing.T) {
	p, ds, gs := gatedPipeline(t, 1, 2)
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Fatal("first cancel false")
	}
	if h.Cancel() {
		t.Fatal("second cancel true")
	}
	if res := h.Wait(); !errors.Is(res.Err, core.ErrQueryCanceled) {
		t.Fatalf("result %v", res.Err)
	}
	gs.gate <- struct{}{} // complete the in-flight read; cancel lands next
	waitActive(t, p, 0)
	<-h.Done() // cleanup drops the query before it retires the plane slot

	// maxConc=1: the only slot must be free again.
	h2, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatalf("slot not recycled: %v", err)
	}
	for i := 0; i < 8; i++ {
		gs.gate <- struct{}{}
	}
	if res := h2.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if h2.Cancel() {
		t.Fatal("cancel after completion returned true")
	}
}

// TestCancelCompletedQueryIsNoop: Cancel after normal delivery returns
// false and does not disturb the result.
func TestCancelCompletedQueryIsNoop(t *testing.T) {
	ds := dataset(t, 500)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if h.Cancel() {
		t.Fatal("cancel of completed query returned true")
	}
}

// TestSubmitCtx covers context-aware submission: an already-canceled
// context never admits, and submission under a live context works.
func TestSubmitCtx(t *testing.T) {
	ds := dataset(t, 300)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SubmitCtx(ctx, countStar(t, ds)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v", err)
	}
	if got := p.ActiveQueries(); got != 0 {
		t.Fatalf("leaked admission: %d active", got)
	}

	h, err := p.SubmitCtx(context.Background(), countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestCancelChurnRace hammers submit/cancel/complete from many
// goroutines; run under -race this doubles as the cancellation memory
// model check. Every slot must be recycled at the end.
func TestCancelChurnRace(t *testing.T) {
	ds := dataset(t, 400)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8, Workers: 2})
	qs := bindWorkload(t, ds, 16, 0.1, 21)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				h, err := p.Submit(qs[rng.Intn(len(qs))])
				if errors.Is(err, core.ErrTooManyQueries) {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(3) {
				case 0:
					h.Cancel()
					if res := h.Wait(); !errors.Is(res.Err, core.ErrQueryCanceled) && res.Err != nil {
						t.Errorf("canceled query result: %v", res.Err)
					}
				case 1:
					// Cancel concurrently with completion.
					go h.Cancel()
					if res := h.Wait(); res.Err != nil && !errors.Is(res.Err, core.ErrQueryCanceled) {
						t.Errorf("racing cancel result: %v", res.Err)
					}
				default:
					if res := h.Wait(); res.Err != nil {
						t.Errorf("normal query result: %v", res.Err)
					}
				}
			}
		}(int64(g) * 7919)
	}
	wg.Wait()
	p.Quiesce()

	// All 8 slots must be free and functional.
	var hs []core.Handle
	for i := 0; i < 8; i++ {
		h, err := p.Submit(qs[i])
		if err != nil {
			t.Fatalf("slot %d not recycled: %v", i, err)
		}
		hs = append(hs, h)
	}
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
			t.Fatalf("post-churn query %d diverges from reference", i)
		}
	}
}
