package dimplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/txn"
)

// randBound builds a random 2-dim query over miniStar: each dimension
// independently unreferenced, or filtered by one of a few templates, so
// batches mix non-ref installs, ref installs, and repeated predicates.
func randBound(star *catalog.Star, rng *rand.Rand) *query.Bound {
	pred := func(dim int) expr.Node {
		switch rng.Intn(3) {
		case 0:
			return predLt(dim, rng.Int63n(5))
		case 1:
			return expr.Bin{Op: expr.Eq, L: expr.Col{Slot: dim, Idx: 1}, R: expr.Const{V: rng.Int63n(4)}}
		default:
			return expr.Bin{Op: expr.Ne, L: expr.Col{Slot: dim, Idx: 1}, R: expr.Const{V: rng.Int63n(4)}}
		}
	}
	b := &query.Bound{
		Schema:   star,
		DimRefs:  make([]bool, 2),
		DimPreds: make([]expr.Node, 2),
	}
	for d := 0; d < 2; d++ {
		if rng.Intn(3) > 0 {
			b.DimRefs[d] = true
			b.DimPreds[d] = pred(d)
		}
	}
	return b
}

// slotKeys collects the key set carrying a slot's bit in one store.
func slotKeys(st *CowStore, slot int) map[int64]bool {
	out := make(map[int64]bool)
	st.ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if bv.Get(slot) {
			out[key] = true
		}
		return true
	})
	return out
}

func sameKeys(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestAdmitBatchParity is the batch-admission exactness property: for
// randomized query batches — mixed refs, repeated templates, cache on
// and off — a batch of K must leave every store bit-for-bit identical
// to K batches of one (Admit) of the same queries, in one publication
// per store instead of K, and interleaved retires must not perturb
// survivors.
func TestAdmitBatchParity(t *testing.T) {
	for _, cacheSize := range []int{-1, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			star := miniStar(t, 30)
			ctx := context.Background()
			for trial := 0; trial < 25; trial++ {
				k := 1 + rng.Intn(8)
				qs := make([]*query.Bound, k)
				for i := range qs {
					qs[i] = randBound(star, rng)
					if i > 0 && rng.Intn(3) == 0 {
						qs[i] = qs[rng.Intn(i)] // repeated template
					}
				}
				cfg := Config{MaxConcurrent: 16, PredCacheSize: cacheSize}
				batched := New(star, cfg)
				seq := New(star, cfg)
				bs, err := batched.AdmitBatch(ctx, qs)
				if err != nil {
					t.Fatal(err)
				}
				ss := make([]int, k)
				for i, q := range qs {
					if ss[i], err = seq.Admit(ctx, q); err != nil {
						t.Fatal(err)
					}
				}
				check := func(stage string) {
					for d := 0; d < 2; d++ {
						for i := range qs {
							if bk, sk := slotKeys(batched.Store(d), bs[i]), slotKeys(seq.Store(d), ss[i]); !sameKeys(bk, sk) {
								t.Fatalf("trial %d %s: dim %d query %d: batched selects %d keys, sequential %d",
									trial, stage, d, i, len(bk), len(sk))
							}
						}
						if bl, sl := batched.Store(d).Len(), seq.Store(d).Len(); bl != sl {
							t.Fatalf("trial %d %s: dim %d: batched stores %d entries, sequential %d", trial, stage, d, bl, sl)
						}
						if br, sr := batched.Store(d).RefCount(), seq.Store(d).RefCount(); br != sr {
							t.Fatalf("trial %d %s: dim %d: refs %d vs %d", trial, stage, d, br, sr)
						}
					}
				}
				check("admitted")
				bst, sst := batched.Stats(), seq.Stats()
				if bst.BatchAdmits != 1 || bst.SnapshotPublishes != 2 ||
					sst.BatchAdmits != int64(k) || sst.SnapshotPublishes != int64(2*k) {
					t.Fatalf("trial %d: rounds/publishes batched=%d/%d sequential=%d/%d, want 1/2 and %d/%d",
						trial, bst.BatchAdmits, bst.SnapshotPublishes, sst.BatchAdmits, sst.SnapshotPublishes, k, 2*k)
				}
				// Retire a random strict subset on both planes; the
				// survivors must still match exactly.
				if k > 1 {
					drop := rng.Intn(k-1) + 1
					for i := 0; i < drop; i++ {
						batched.Retire(bs[i])
						seq.Retire(ss[i])
					}
					bs, ss, qs = bs[drop:], ss[drop:], qs[drop:]
					check("after partial retire")
				}
			}
		})
	}
}

// TestAdmitBatchAllOrNothing: slot exhaustion mid-batch admits nothing
// and leaves no trace, and the failure does not disturb queries already
// admitted.
func TestAdmitBatchAllOrNothing(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 4})
	ctx := context.Background()
	held, err := pl.Admit(ctx, boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := slotKeys(pl.Store(0), held)

	qs := make([]*query.Bound, 4) // 4 > 3 free slots
	for i := range qs {
		qs[i] = boundRef(star, 3)
	}
	if _, err := pl.AdmitBatch(ctx, qs); !errors.Is(err, ErrSlotsExhausted) {
		t.Fatalf("err = %v, want ErrSlotsExhausted", err)
	}
	if pl.InUse() != 1 {
		t.Fatalf("InUse = %d after failed batch, want 1", pl.InUse())
	}
	if !sameKeys(slotKeys(pl.Store(0), held), before) {
		t.Fatal("failed batch disturbed an admitted query")
	}
	// The held query was one round publishing once per store; the
	// failed batch must add nothing.
	if st := pl.Stats(); st.BatchAdmits != 1 || st.SnapshotPublishes != 2 {
		t.Fatalf("failed batch moved counters: %+v", st)
	}
	// The freed slots admit a fitting batch.
	slots, err := pl.AdmitBatch(ctx, qs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 || pl.InUse() != 4 {
		t.Fatalf("slots=%v inuse=%d", slots, pl.InUse())
	}
}

// TestAdmitBatchRollsBack covers the fallible half of AdmitBatch: a
// canceled context or an injected admission fault must admit nothing.
func TestAdmitBatchRollsBack(t *testing.T) {
	star := miniStar(t, 20)
	boom := errors.New("injected")
	calls, failAt := 0, 3
	pl := New(star, Config{MaxConcurrent: 8, AdmitFault: func() error {
		calls++
		if calls == failAt {
			return boom
		}
		return nil
	}})
	qs := []*query.Bound{boundRef(star, 2), boundRef(star, 3), boundRef(star, 4)}
	if _, err := pl.AdmitBatch(context.Background(), qs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 || pl.Store(0).RefCount() != 0 {
		t.Fatalf("failed batch left state: inuse=%d len=%d refs=%d",
			pl.InUse(), pl.Store(0).Len(), pl.Store(0).RefCount())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.AdmitBatch(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 {
		t.Fatal("canceled batch left state behind")
	}
	// The plane still works.
	if _, err := pl.AdmitBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSavesPublications pins the tentpole's arithmetic: a K-query
// batch costs one snapshot publication per store instead of K.
func TestBatchSavesPublications(t *testing.T) {
	star := miniStar(t, 20)
	ctx := context.Background()
	qs := make([]*query.Bound, 6)
	for i := range qs {
		qs[i] = boundRef(star, int64(1+i%3))
	}

	seq := New(star, Config{MaxConcurrent: 16})
	for _, q := range qs {
		if _, err := seq.Admit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	batched := New(star, Config{MaxConcurrent: 16})
	if _, err := batched.AdmitBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}

	sp, bp := seq.Stats().SnapshotPublishes, batched.Stats().SnapshotPublishes
	if want := int64(len(qs) * 2); sp != want { // 2 dims per query
		t.Fatalf("sequential publishes = %d, want %d", sp, want)
	}
	if want := int64(2); bp != want { // one per store for the whole batch
		t.Fatalf("batched publishes = %d, want %d", bp, want)
	}
	st := batched.Stats()
	if st.BatchAdmits != 1 || st.BatchQueries != 6 {
		t.Fatalf("batch counters: %+v", st)
	}
}

// TestPredCacheHitsAndCounters: repeated predicates are served from the
// cache (one heap scan per distinct predicate) and the hit/miss ledger
// matches.
func TestPredCacheHitsAndCounters(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 16})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		// Structurally equal but distinct ASTs: the fingerprint, not
		// pointer identity, must unify them.
		if _, err := pl.Admit(ctx, boundRef(star, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 4 {
		t.Fatalf("hits=%d misses=%d, want 4/1", st.CacheHits, st.CacheMisses)
	}
	if pl.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", pl.cache.len())
	}

	// Disabled cache: every admission scans.
	off := New(star, Config{MaxConcurrent: 16, PredCacheSize: -1})
	for i := 0; i < 3; i++ {
		if _, err := off.Admit(ctx, boundRef(star, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache counted: %+v", st)
	}

	// Disabled cache, one batch of three equal templates: the batch-local
	// memo still scans once, and its two reuses count as hits.
	batch := New(star, Config{MaxConcurrent: 16, PredCacheSize: -1})
	qs := []*query.Bound{boundRef(star, 2), boundRef(star, 2), boundRef(star, 2)}
	if _, err := batch.AdmitBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}
	if st := batch.Stats(); st.CacheHits != 2 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache, one batch of 3: hits=%d misses=%d, want 2/0", st.CacheHits, st.CacheMisses)
	}
}

// TestPredCacheInvalidation: results must never be served stale — a
// dimension heap growing under the cached scan, an in-place rewrite of
// one of its cells, or an InvalidateCache (a quarantine) all force a
// re-scan. A rewrite of one dimension leaves the other
// dimensions' entries hitting.
func TestPredCacheInvalidation(t *testing.T) {
	star := miniStar(t, 10)
	pl := New(star, Config{MaxConcurrent: 16})
	ctx := context.Background()

	s0, err := pl.Admit(ctx, boundRef(star, 2)) // caches the v<2 scan
	if err != nil {
		t.Fatal(err)
	}
	base := len(slotKeys(pl.Store(0), s0))

	// The heap grows: key 100 with v=1 matches v<2. The heap's version
	// moved, so the cached rows are rejected and the heap re-scanned.
	star.Dims[0].Heap.Append([]int64{100, 1})
	s1, err := pl.Admit(ctx, boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	keys := slotKeys(pl.Store(0), s1)
	if len(keys) != base+1 || !keys[100] {
		t.Fatalf("stale cache: new admission selected %d keys (want %d incl. key 100)", len(keys), base+1)
	}

	// An in-place rewrite leaves the heap's geometry unchanged, yet must
	// be seen: key 3 (v=3) rewritten to v=0 joins v<2. A d2 template
	// cached before the rewrite keeps hitting.
	onD2 := &query.Bound{Schema: star, DimRefs: []bool{false, true}, DimPreds: []expr.Node{nil, predLt(1, 1)}}
	if _, err := pl.Admit(ctx, onD2); err != nil {
		t.Fatal(err)
	}
	if err := star.Dims[0].Heap.UpdateCol(3, 1, 0); err != nil {
		t.Fatal(err)
	}
	before := pl.Stats()
	s2, err := pl.Admit(ctx, boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	if keys := slotKeys(pl.Store(0), s2); len(keys) != base+2 || !keys[3] {
		t.Fatalf("stale cache after in-place rewrite: selected %d keys (want %d incl. key 3)", len(keys), base+2)
	}
	if _, err := pl.Admit(ctx, onD2); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.CacheMisses != before.CacheMisses+1 || st.CacheHits != before.CacheHits+1 {
		t.Fatalf("after a d1 rewrite: misses %d→%d, hits %d→%d; want the d1 template to miss and the d2 one to hit",
			before.CacheMisses, st.CacheMisses, before.CacheHits, st.CacheHits)
	}

	// InvalidateCache (a quarantine) invalidates: the next resolution is
	// a miss even though the fingerprint and the heap are unchanged.
	misses := pl.Stats().CacheMisses
	pl.InvalidateCache()
	if _, err := pl.Admit(ctx, boundRef(star, 2)); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().CacheMisses; got != misses+1 {
		t.Fatalf("misses after InvalidateCache = %d, want %d", got, misses+1)
	}
}

// TestPredCacheStaleFill is the regression test for the fill-vs-write
// race: a dimension rewrite that commits while an admission's cache-miss
// scan is in flight, in a page that scan has already read, must not
// leave the scan's pre-write rows behind as a hit. The fill carries the
// heap version read before its scan, so the next admission of the same
// template misses and selects the new row.
func TestPredCacheStaleFill(t *testing.T) {
	// Six flushed pages of d1 at 64 KB/s: the cache-miss scan takes
	// ~0.75 s, one page per 125 ms.
	dev := disk.New(disk.Config{SeqBytesPerSec: 64 << 10})
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "fk1"}, {Name: "fk2"}})
	d1 := catalog.NewTable(dev, "d1", 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
	d2 := catalog.NewTable(dev, "d2", 0, []catalog.Column{{Name: "k"}, {Name: "w"}})
	for k := int64(0); k < int64(6*d1.Heap.RowsPerPage()); k++ {
		d1.Heap.Append([]int64{k, k % 5})
	}
	d2.Heap.Append([]int64{0, 0}) // the in-memory tail: no device reads
	star, err := catalog.NewStar(fact, []*catalog.Table{d1, d2}, []int{0, 1}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	pl := New(star, Config{MaxConcurrent: 4})
	ctx := context.Background()
	var txm txn.Manager

	done := make(chan error, 1)
	go func() {
		slot, err := pl.Admit(ctx, boundRef(star, 2)) // v < 2: selects key 0
		if err == nil {
			pl.Retire(slot)
		}
		done <- err
	}()
	// The device has served page 0, which holds row 0.
	for dev.Stats().Reads == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Skip("the scan finished before the rewrite; the race window was missed")
	default:
	}
	if _, err := txm.Update(d1, 0, 1, 4); err != nil { // key 0 leaves v < 2
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	slot, err := pl.Admit(ctx, boundRef(star, 2))
	if err != nil {
		t.Fatal(err)
	}
	if slotKeys(pl.Store(0), slot)[0] {
		t.Fatal("stale fill: key 0 selected after its row was rewritten out of the predicate")
	}
}

// TestPredCacheEviction: the FIFO bound holds.
func TestPredCacheEviction(t *testing.T) {
	star := miniStar(t, 20)
	pl := New(star, Config{MaxConcurrent: 32, PredCacheSize: 2})
	ctx := context.Background()
	for x := int64(1); x <= 4; x++ {
		if _, err := pl.Admit(ctx, boundRef(star, x)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pl.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", got)
	}
}

// TestPredCacheChurnRace churns batch and single admissions (repeated
// templates, so the cache is hot) and retires from many goroutines while
// a writer rewrites dimension cells in place; under -race this proves
// the cache needs no coordination with the slot ledger or the writer
// beyond its own mutex and the heap's version. Once the churn stops,
// every template must select exactly what a fresh scan selects.
func TestPredCacheChurnRace(t *testing.T) {
	star := miniStar(t, 40)
	pl := New(star, Config{MaxConcurrent: 32, PredCacheSize: 4})
	ctx := context.Background()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := star.Dims[0].Heap.UpdateCol(rng.Int63n(40), 1, rng.Int63n(5)); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				if w%2 == 0 {
					qs := make([]*query.Bound, 1+rng.Intn(4))
					for j := range qs {
						qs[j] = boundRef(star, int64(1+rng.Intn(5)))
					}
					slots, err := pl.AdmitBatch(ctx, qs)
					if errors.Is(err, ErrSlotsExhausted) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					for _, s := range slots {
						pl.Retire(s)
					}
				} else {
					slot, err := pl.Admit(ctx, boundRef(star, int64(1+rng.Intn(5))))
					if errors.Is(err, ErrSlotsExhausted) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					pl.Retire(slot)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if pl.InUse() != 0 || pl.Store(0).Len() != 0 || pl.Store(0).RefCount() != 0 {
		t.Fatalf("churn left inuse=%d len=%d refs=%d", pl.InUse(), pl.Store(0).Len(), pl.Store(0).RefCount())
	}
	for x := int64(1); x <= 5; x++ {
		want, err := SelectRows(star.Dims[0], predLt(0, x))
		if err != nil {
			t.Fatal(err)
		}
		slot, err := pl.Admit(ctx, boundRef(star, x))
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := make(map[int64]bool, want.Len())
		for r := range want.Len() {
			wantKeys[want.Row(r)[0]] = true
		}
		if got := slotKeys(pl.Store(0), slot); !sameKeys(got, wantKeys) {
			t.Fatalf("v<%d after churn: admission selects %d keys, a fresh scan %d (stale fill)", x, len(got), len(wantKeys))
		}
		pl.Retire(slot)
	}
}

// TestAdmitBatchEmptyAndSingle: degenerate batch shapes.
func TestAdmitBatchEmptyAndSingle(t *testing.T) {
	star := miniStar(t, 10)
	pl := New(star, Config{MaxConcurrent: 4})
	slots, err := pl.AdmitBatch(context.Background(), nil)
	if err != nil || slots != nil {
		t.Fatalf("empty batch: %v %v", slots, err)
	}
	slots, err = pl.AdmitBatch(context.Background(), []*query.Bound{boundRef(star, 2)})
	if err != nil || len(slots) != 1 {
		t.Fatalf("single batch: %v %v", slots, err)
	}
	if st := pl.Stats(); st.BatchAdmits != 1 || st.BatchQueries != 1 {
		t.Fatalf("counters: %+v", st)
	}
}
