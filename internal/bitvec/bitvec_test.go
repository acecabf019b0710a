package bitvec

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSetClearGet(t *testing.T) {
	v := New(200)
	for i := 0; i < 200; i += 7 {
		v.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%7 == 0
		if v.Get(i) != want {
			t.Fatalf("bit %d: got %v, want %v", i, v.Get(i), want)
		}
	}
	for i := 0; i < 200; i += 7 {
		v.Clear(i)
	}
	if !v.IsZero() {
		t.Fatal("expected zero vector after clearing all bits")
	}
}

func TestAndOrSemantics(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	b.Set(64)
	b.Set(100)
	c := a.Clone()
	c.And(b)
	if c.Count() != 1 || !c.Get(64) {
		t.Fatalf("And: got %v", c)
	}
	d := a.Clone()
	d.Or(b)
	if d.Count() != 4 {
		t.Fatalf("Or: got count %d", d.Count())
	}
}

func TestAndNotIsZero(t *testing.T) {
	v, mask := New(70), New(70)
	v.Set(3)
	v.Set(69)
	mask.Set(3)
	if v.AndNotIsZero(mask) {
		t.Fatal("bit 69 outside mask should make AndNotIsZero false")
	}
	mask.Set(69)
	if !v.AndNotIsZero(mask) {
		t.Fatal("all bits covered by mask; want true")
	}
}

func TestAndIsZero(t *testing.T) {
	v, o := New(10), New(10)
	v.Set(1)
	o.Set(2)
	if !v.AndIsZero(o) {
		t.Fatal("disjoint vectors must AND to zero")
	}
	o.Set(1)
	if v.AndIsZero(o) {
		t.Fatal("overlapping vectors must not AND to zero")
	}
}

func TestFill(t *testing.T) {
	v := New(130)
	v.Fill(100)
	if v.Count() != 100 {
		t.Fatalf("Fill(100): count %d", v.Count())
	}
	if v.Get(100) || !v.Get(99) {
		t.Fatal("Fill boundary wrong")
	}
	v.Fill(128)
	if v.Count() != 128 {
		t.Fatalf("Fill(128): count %d", v.Count())
	}
}

func TestNextSetAndForEach(t *testing.T) {
	v := New(300)
	want := []int{0, 63, 64, 199, 299}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk: got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk: got %v want %v", got, want)
		}
	}
	got = got[:0]
	v.ForEach(func(i int) bool { got = append(got, i); return true })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach walk: got %v want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	v.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach early stop: %d calls", n)
	}
	if v.NextSet(300) != -1 {
		t.Fatal("NextSet past end must be -1")
	}
}

// Property: And/Or/AndNot agree with per-bit boolean logic.
func TestBitwiseOpsQuick(t *testing.T) {
	f := func(aw, bw [3]uint64) bool {
		a, b := Vec(aw[:]).Clone(), Vec(bw[:]).Clone()
		and, or, andnot := a.Clone(), a.Clone(), a.Clone()
		and.And(b)
		or.Or(b)
		andnot.AndNot(b)
		for i := 0; i < 192; i++ {
			if and.Get(i) != (a.Get(i) && b.Get(i)) {
				return false
			}
			if or.Get(i) != (a.Get(i) || b.Get(i)) {
				return false
			}
			if andnot.Get(i) != (a.Get(i) && !b.Get(i)) {
				return false
			}
		}
		if a.AndIsZero(b) != and.IsZero() {
			return false
		}
		if a.AndNotIsZero(b) != andnot.IsZero() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of Get-true positions.
func TestCountQuick(t *testing.T) {
	f := func(w [4]uint64) bool {
		v := Vec(w[:])
		n := 0
		for i := 0; i < 256; i++ {
			if v.Get(i) {
				n++
			}
		}
		return n == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorSequential(t *testing.T) {
	a := NewAllocator(10)
	for i := 0; i < 10; i++ {
		got, ok := a.Alloc()
		if !ok || got != i {
			t.Fatalf("Alloc #%d = %d,%v", i, got, ok)
		}
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("Alloc must fail when full")
	}
	a.Free(4)
	if got, ok := a.Alloc(); !ok || got != 4 {
		t.Fatalf("expected reuse of slot 4, got %d,%v", got, ok)
	}
	if a.InUse() != 10 {
		t.Fatalf("InUse = %d, want 10", a.InUse())
	}
}

func TestAllocatorBoundary(t *testing.T) {
	// n not a multiple of 64: the last word's tail must never be handed out.
	a := NewAllocator(65)
	seen := make(map[int]bool)
	for {
		s, ok := a.Alloc()
		if !ok {
			break
		}
		if s < 0 || s >= 65 || seen[s] {
			t.Fatalf("bad slot %d", s)
		}
		seen[s] = true
	}
	if len(seen) != 65 {
		t.Fatalf("allocated %d slots, want 65", len(seen))
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(4)
	s, _ := a.Alloc()
	a.Free(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free(s)
}

func TestAllocatorConcurrent(t *testing.T) {
	const n, workers, rounds = 512, 8, 2000
	a := NewAllocator(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]int, 0, 64)
			for r := 0; r < rounds; r++ {
				if len(held) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(held))
					a.Free(held[i])
					held = append(held[:i], held[i+1:]...)
				} else if s, ok := a.Alloc(); ok {
					held = append(held, s)
				}
			}
			for _, s := range held {
				a.Free(s)
			}
		}(int64(w))
	}
	wg.Wait()
	if a.InUse() != 0 {
		t.Fatalf("leaked %d slots", a.InUse())
	}
	// Every slot must be allocatable again.
	for i := 0; i < n; i++ {
		if _, ok := a.Alloc(); !ok {
			t.Fatalf("slot %d not reusable after concurrent churn", i)
		}
	}
}

func TestUint64FastPath(t *testing.T) {
	v := New(64)
	v.Set(0)
	v.Set(63)
	if v.Uint64() != 1|1<<63 {
		t.Fatalf("Uint64 = %x", v.Uint64())
	}
	v.SetUint64(0xf0)
	if v.Uint64() != 0xf0 || !v.Get(4) || v.Get(0) {
		t.Fatalf("SetUint64 round trip failed: %x", v.Uint64())
	}
	// The register form must agree with the vector operations the fast
	// path replaces: probe-skip test, AND, and zero check.
	mask := New(64)
	mask.SetUint64(0x0f)
	if (v.Uint64()&^mask.Uint64() == 0) != v.AndNotIsZero(mask) {
		t.Fatal("register probe-skip test diverges from AndNotIsZero")
	}
	v.And(mask)
	if v.Uint64() != 0xf0&0x0f || (v.Uint64() == 0) != v.IsZero() {
		t.Fatalf("register AND diverges from Vec.And: %x", v.Uint64())
	}
}

// TestUnrolledTailWidths drives every binary op across widths that
// exercise the 4-word unrolled block, the scalar tail, and both together
// (1..9 words), against a bit-by-bit reference.
func TestUnrolledTailWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for words := 1; words <= 9; words++ {
		nbits := words * 64
		for trial := 0; trial < 50; trial++ {
			a, b := New(nbits), New(nbits)
			for i := 0; i < nbits; i++ {
				if rng.Intn(3) == 0 {
					a.Set(i)
				}
				if rng.Intn(3) == 0 {
					b.Set(i)
				}
			}
			wantAnd, wantAndNot, wantOr := New(nbits), New(nbits), New(nbits)
			andZero, andNotZero, zero := true, true, true
			for i := 0; i < nbits; i++ {
				av, bv := a.Get(i), b.Get(i)
				if av && bv {
					wantAnd.Set(i)
					andZero = false
				}
				if av && !bv {
					wantAndNot.Set(i)
					andNotZero = false
				}
				if av || bv {
					wantOr.Set(i)
				}
				if av {
					zero = false
				}
			}
			if got := a.AndIsZero(b); got != andZero {
				t.Fatalf("words=%d AndIsZero=%v want %v", words, got, andZero)
			}
			if got := a.AndNotIsZero(b); got != andNotZero {
				t.Fatalf("words=%d AndNotIsZero=%v want %v", words, got, andNotZero)
			}
			if got := a.IsZero(); got != zero {
				t.Fatalf("words=%d IsZero=%v want %v", words, got, zero)
			}
			for op, want := range map[string]Vec{"and": wantAnd, "andnot": wantAndNot, "or": wantOr} {
				c := a.Clone()
				switch op {
				case "and":
					c.And(b)
				case "andnot":
					c.AndNot(b)
				case "or":
					c.Or(b)
				}
				if !c.Equal(want) {
					t.Fatalf("words=%d %s mismatch", words, op)
				}
			}
		}
	}
}
