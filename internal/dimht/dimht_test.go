package dimht

import (
	"math/rand"
	"runtime"
	"testing"

	"cjoin/internal/bitvec"
)

// row builds the two-column dimension row (k, 10k) used throughout.
func row(k int64) []int64 { return []int64{k, 10 * k} }

func TestUpsertLookupRoundTrip(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		b.AddRef()
		for k := int64(0); k < 100; k++ {
			b.Upsert(k, row(k)).Set(3)
		}
	})
	s := tab.Load()
	if s.Len() != 100 || s.Refs() != 1 {
		t.Fatalf("len=%d refs=%d", s.Len(), s.Refs())
	}
	for k := int64(0); k < 100; k++ {
		slot := s.Lookup(k)
		if slot < 0 {
			t.Fatalf("key %d missing", k)
		}
		if got := s.Row(slot); got[0] != k || got[1] != 10*k {
			t.Fatalf("key %d row %v", k, got)
		}
		if !s.Bits(slot).Get(3) || s.Word(slot) != 1<<3 {
			t.Fatalf("key %d bits %v", k, s.Bits(slot))
		}
	}
	if s.Lookup(1000) >= 0 {
		t.Fatal("absent key found")
	}
}

// TestCollisionChain forces several keys into one bucket of a minimal
// table and checks linear-probe resolution, including a miss that walks
// the full chain.
func TestCollisionChain(t *testing.T) {
	tab := New(1, 2)
	mask := uint64(minCapacity - 1)

	// Collect 5 keys hashing to bucket 0 of an 8-slot table, plus one
	// absent key in the same bucket.
	var colliding []int64
	var absent int64 = -1
	for k := int64(0); absent < 0; k++ {
		if hash(k)&mask == 0 {
			if len(colliding) < 5 {
				colliding = append(colliding, k)
			} else {
				absent = k
			}
		}
	}
	tab.Update(func(b *Builder) {
		for _, k := range colliding {
			b.Upsert(k, row(k)).Set(0)
		}
	})
	s := tab.Load()
	if len(s.keys) != minCapacity {
		t.Fatalf("table grew to %d slots; collision test needs %d", len(s.keys), minCapacity)
	}
	for _, k := range colliding {
		slot := s.Lookup(k)
		if slot < 0 || s.Row(slot)[0] != k {
			t.Fatalf("colliding key %d not found", k)
		}
	}
	if s.Lookup(absent) >= 0 {
		t.Fatalf("absent colliding key %d found", absent)
	}
}

func TestGrowthRehash(t *testing.T) {
	tab := New(2, 2)
	const n = 10000
	keys := rand.New(rand.NewSource(7)).Perm(n)
	// Insert across several publications so growth happens both inside
	// one builder and across builder copies.
	for chunk := 0; chunk < n; chunk += 1000 {
		tab.Update(func(b *Builder) {
			for _, k := range keys[chunk : chunk+1000] {
				b.Upsert(int64(k), row(int64(k))).Set(k % 128)
			}
		})
	}
	s := tab.Load()
	if s.Len() != n {
		t.Fatalf("len %d want %d", s.Len(), n)
	}
	if len(s.keys)&(len(s.keys)-1) != 0 {
		t.Fatalf("capacity %d not a power of two", len(s.keys))
	}
	for _, k := range keys {
		slot := s.Lookup(int64(k))
		if slot < 0 {
			t.Fatalf("key %d lost in growth", k)
		}
		if got := s.Row(slot); got[1] != 10*int64(k) {
			t.Fatalf("key %d row %v after rehash", k, got)
		}
		if !s.Bits(slot).Get(k % 128) {
			t.Fatalf("key %d bits lost", k)
		}
	}
}

// TestUpsertExistingNoGrowth pins the write-path behavior that an upsert
// of an already-stored key never grows the table: at full permitted load
// the capacity check would otherwise fire spuriously and rehash
// everything without adding an entry.
func TestUpsertExistingNoGrowth(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		for k := int64(0); k < minCapacity*maxLoadNum/maxLoadDen; k++ { // exactly full load
			b.Upsert(k, row(k)).Set(0)
		}
	})
	if got := len(tab.Load().keys); got != minCapacity {
		t.Fatalf("setup grew to %d slots", got)
	}
	tab.Update(func(b *Builder) {
		b.Upsert(0, row(0)).Set(1) // existing key
	})
	s := tab.Load()
	if got := len(s.keys); got != minCapacity {
		t.Fatalf("existing-key upsert grew the table to %d slots", got)
	}
	if !s.Bits(s.Lookup(0)).Get(1) {
		t.Fatal("existing-key upsert lost the new bit")
	}
}

// TestSentinelKey exercises a stored key equal to the internal empty
// sentinel, which lives in the overflow slot.
func TestSentinelKey(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		b.Upsert(emptyKey, row(0)).Set(1)
		b.Upsert(42, row(42)).Set(1)
	})
	s := tab.Load()
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	slot := s.Lookup(emptyKey)
	if slot < 0 || !s.Bits(slot).Get(1) {
		t.Fatal("sentinel key lost")
	}
	seen := 0
	s.ForEach(func(key int64, _ []int64, _ bitvec.Vec) bool {
		seen++
		return true
	})
	if seen != 2 {
		t.Fatalf("ForEach visited %d entries", seen)
	}
	// SetBitsAll / ClearBitAll must reach the overflow slot.
	tab.Update(func(b *Builder) { b.SetBitsAll(oneBit(1, 5)) })
	if !tab.Load().Bits(tab.Load().Lookup(emptyKey)).Get(5) {
		t.Fatal("SetBitsAll missed the sentinel slot")
	}
	// GC must be able to drop it.
	tab.Update(func(b *Builder) {
		b.Retain(func(bv bitvec.Vec) bool { return false })
	})
	if s := tab.Load(); s.Len() != 0 || s.Lookup(emptyKey) >= 0 {
		t.Fatal("Retain left the sentinel slot behind")
	}
}

func TestSetClearBitAll(t *testing.T) {
	tab := New(2, 2)
	tab.Update(func(b *Builder) {
		for k := int64(0); k < 50; k++ {
			b.Upsert(k, row(k))
		}
		b.SetBitsAll(oneBit(2, 100))
	})
	tab.Load().ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if !bv.Get(100) {
			t.Fatalf("key %d missing broadcast bit", key)
		}
		return true
	})
	tab.Update(func(b *Builder) { b.ClearBitAll(100) })
	tab.Load().ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
		if bv.Get(100) {
			t.Fatalf("key %d kept cleared bit", key)
		}
		return true
	})
}

// TestUpsertInitializesFromMask checks the §3.2.1 invariant: a fresh
// entry starts transparent to every active non-referencing query.
func TestUpsertInitializesFromMask(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		b.SetMaskBit(2)
		b.SetMaskBit(7)
		b.Upsert(9, row(9)).Set(0)
	})
	s := tab.Load()
	bv := s.Bits(s.Lookup(9))
	if !bv.Get(0) || !bv.Get(2) || !bv.Get(7) || bv.Count() != 3 {
		t.Fatalf("new entry bits %v", bv)
	}
	if !s.Mask().Get(2) || s.MaskWord() != (1<<2|1<<7) {
		t.Fatalf("mask %v", s.Mask())
	}
}

// TestRetainGC mirrors dimState.remove: clear a query's bit everywhere,
// then drop entries no remaining referencing query selects.
func TestRetainGC(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		b.AddRef()
		for k := int64(0); k < 40; k++ {
			b.Upsert(k, row(k)).Set(0)
		}
		b.AddRef()
		for k := int64(0); k < 10; k++ {
			b.Upsert(k, row(k)).Set(1)
		}
	})
	tab.Update(func(b *Builder) {
		b.DropRef()
		b.ClearBitAll(0)
		mask := b.Mask()
		b.Retain(func(bv bitvec.Vec) bool { return !bv.AndNotIsZero(mask) })
	})
	s := tab.Load()
	if s.Len() != 10 {
		t.Fatalf("GC left %d entries, want 10", s.Len())
	}
	for k := int64(0); k < 40; k++ {
		found := s.Lookup(k) >= 0
		if found != (k < 10) {
			t.Fatalf("key %d present=%v after GC", k, found)
		}
	}
	// The row arena must have been compacted to the survivors.
	if len(s.rows) != 10*s.ncols {
		t.Fatalf("row arena %d values, want %d", len(s.rows), 10*s.ncols)
	}
}

// TestSnapshotImmutable verifies copy-on-write isolation: a held snapshot
// (and rows sliced out of it) never changes under later updates.
func TestSnapshotImmutable(t *testing.T) {
	tab := New(1, 2)
	tab.Update(func(b *Builder) {
		for k := int64(0); k < 20; k++ {
			b.Upsert(k, row(k)).Set(0)
		}
	})
	old := tab.Load()
	oldSlot := old.Lookup(7)
	oldRow := old.Row(oldSlot)
	oldWord := old.Word(oldSlot)

	tab.Update(func(b *Builder) {
		b.SetMaskBit(3)
		b.SetBitsAll(oneBit(1, 3))
		b.Upsert(100, row(100)).Set(5)
	})
	tab.Update(func(b *Builder) {
		b.Retain(func(bv bitvec.Vec) bool { return false })
	})

	if old.Len() != 20 || old.Lookup(100) >= 0 {
		t.Fatal("held snapshot saw later insert")
	}
	if old.Word(oldSlot) != oldWord || old.Word(oldSlot) != 1 {
		t.Fatal("held snapshot bits changed")
	}
	if oldRow[0] != 7 || oldRow[1] != 70 {
		t.Fatal("row slice out of held snapshot changed")
	}
	if old.Mask().Get(3) {
		t.Fatal("held snapshot mask changed")
	}
	if tab.Load().Len() != 0 {
		t.Fatal("final snapshot should be empty")
	}
}

// TestConcurrentReadersWriters is the package-level lock-free smoke test:
// readers probe continuously while a writer churns entries. Run with
// -race to verify publication safety.
func TestConcurrentReadersWriters(t *testing.T) {
	tab := New(1, 2)
	stop := make(chan struct{})
	done := make(chan struct{})
	const readers = 4
	for r := 0; r < readers; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := tab.Load()
				for k := int64(0); k < 64; k++ {
					if slot := s.Lookup(k); slot >= 0 {
						if got := s.Row(slot); got[0] != k {
							panic("torn row read")
						}
						_ = s.Word(slot)
					}
				}
				runtime.Gosched() // keep single-CPU runs fair to the writer
			}
		}()
	}
	for i := 0; i < 100; i++ {
		tab.Update(func(b *Builder) {
			for k := int64(0); k < 64; k++ {
				b.Upsert(k, row(k)).Set(i % 64)
			}
		})
		tab.Update(func(b *Builder) {
			b.ClearBitAll(i % 64)
			b.Retain(func(bv bitvec.Vec) bool { return !bv.IsZero() })
		})
	}
	close(stop)
	for r := 0; r < readers; r++ {
		<-done
	}
}

// TestSetBitsAll checks the multi-slot broadcast sweep against the
// equivalent sequence of single-bit broadcasts, in both the one-word
// fast path and the multi-word layout, plus the empty-mask no-op.
func TestSetBitsAll(t *testing.T) {
	for _, words := range []int{1, 3} {
		tab := New(words, 2)
		tab.Update(func(b *Builder) {
			for k := int64(0); k < 40; k++ {
				b.Upsert(k, row(k))
			}
		})
		mask := bitvec.New(words * 64)
		mask.Set(0)
		mask.Set(5)
		if words > 1 {
			mask.Set(64 + 7)
			mask.Set(words*64 - 1)
		}
		before := tab.Load()
		tab.Update(func(b *Builder) { b.SetBitsAll(mask) })
		tab.Load().ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
			for i := 0; i < words*64; i++ {
				if bv.Get(i) != mask.Get(i) {
					t.Fatalf("words=%d key %d bit %d = %v, want %v", words, key, i, bv.Get(i), mask.Get(i))
				}
			}
			return true
		})
		// The pre-sweep snapshot is immutable: COW must not have leaked
		// writes into it.
		before.ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
			if bv.Count() != 0 {
				t.Fatalf("words=%d: snapshot taken before sweep mutated (key %d)", words, key)
			}
			return true
		})
		// Empty mask: no privatization, no change.
		tab.Update(func(b *Builder) { b.SetBitsAll(bitvec.New(words * 64)) })
		tab.Load().ForEach(func(key int64, _ []int64, bv bitvec.Vec) bool {
			for i := 0; i < words*64; i++ {
				if bv.Get(i) != mask.Get(i) {
					t.Fatalf("words=%d: empty-mask sweep changed key %d", words, key)
				}
			}
			return true
		})
	}
}

// oneBit is a words-wide mask with only bit i set.
func oneBit(words, i int) bitvec.Vec {
	v := make(bitvec.Vec, words)
	v.Set(i)
	return v
}
