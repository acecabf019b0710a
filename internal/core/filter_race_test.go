package core

import (
	"runtime"
	"sync"
	"testing"

	"cjoin/internal/bitvec"
)

// TestFilterLockFreeUnderChurn drives filterBatch from concurrent Stage
// workers while the pipeline-manager side admits and removes queries as
// fast as it can. With the dimht store the probe path takes no lock; run
// under -race this test verifies that copy-on-write publication alone is
// enough for safe concurrent access, and the attached-row invariant
// checks that workers never observe a torn snapshot.
func TestFilterLockFreeUnderChurn(t *testing.T) {
	star := miniStar(t, 64)
	ds := newTestDimState(star, 0, 64)

	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := newBatch(64, 2, bitvec.Words(64), 1)
				for i := 0; i < 64; i++ {
					row, bv := b.push()
					row[0] = (seed + int64(i)) % 80 // some keys miss
					for s := 0; s < 8; s++ {
						bv.Set(s)
					}
				}
				ds.filterBatch(b)
				for k := range b.sel {
					row, _, dims := b.survivor(k)
					if dims[0] != nil && dims[0][0] != row[0] {
						panic("attached dimension row does not match the probed key")
					}
				}
				runtime.Gosched()
			}
		}(int64(w))
	}

	// Churn all 8 slots through admit/remove cycles: half referencing
	// with varying selectivity, half non-referencing.
	for i := 0; i < 150; i++ {
		for slot := 0; slot < 8; slot++ {
			if slot%2 == 0 {
				if err := ds.admit(slot, predLt(int64(1+i%5))); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := ds.admit(slot, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		for slot := 0; slot < 8; slot++ {
			ds.remove(slot, slot%2 == 0)
		}
	}
	close(stop)
	wg.Wait()

	if ds.size() != 0 || ds.refCount() != 0 {
		t.Fatalf("churn left size=%d refs=%d", ds.size(), ds.refCount())
	}
}

// TestDecayStatsConcurrentAdds exercises decayStats against concurrent
// Stage-worker increments. The old Load()/Store(x/2) pairs silently
// discarded any Add landing between the two calls; the CAS loop retries
// instead, so after every adder finishes and a final decay runs, exactly
// half the settled total must remain.
func TestDecayStatsConcurrentAdds(t *testing.T) {
	star := miniStar(t, 5)
	ds := newTestDimState(star, 0, 8)

	const adders = 4
	const perAdder = 5000
	stop := make(chan struct{})
	var decayer sync.WaitGroup
	decayer.Add(1)
	go func() {
		defer decayer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ds.decayStats()
				runtime.Gosched()
			}
		}
	}()
	var adds sync.WaitGroup
	for a := 0; a < adders; a++ {
		adds.Add(1)
		go func() {
			defer adds.Done()
			for i := 0; i < perAdder; i++ {
				ds.tuplesIn.Add(1)
			}
		}()
	}
	adds.Wait()
	close(stop)
	decayer.Wait()

	settled := ds.tuplesIn.Load()
	if settled < 0 || settled > adders*perAdder {
		t.Fatalf("counter out of range after concurrent decay: %d", settled)
	}
	ds.decayStats()
	if got := ds.tuplesIn.Load(); got != settled/2 {
		t.Fatalf("quiescent decay %d -> %d, want %d", settled, got, settled/2)
	}
}
