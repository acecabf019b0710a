package bitvec

import "testing"

// The paper profiles bitmap operations as CJOIN's scalability limiter at
// n=256 (§6.2.2); these microbenchmarks track the per-tuple costs.

func BenchmarkAnd256(b *testing.B) {
	x, y := New(256), New(256)
	y.Fill(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkAndNotIsZero256(b *testing.B) {
	x, mask := New(256), New(256)
	x.Set(17)
	mask.Fill(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.AndNotIsZero(mask)
	}
}

func BenchmarkCopyFrom256(b *testing.B) {
	x, y := New(256), New(256)
	y.Fill(123)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.CopyFrom(y)
	}
}

func BenchmarkForEach256Sparse(b *testing.B) {
	v := New(256)
	for _, i := range []int{3, 70, 199} {
		v.Set(i)
	}
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		v.ForEach(func(j int) bool { sum += j; return true })
	}
	_ = sum
}

func BenchmarkAllocatorAllocFree(b *testing.B) {
	a := NewAllocator(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := a.Alloc()
		a.Free(s)
	}
}

// Width sweep over the unrolled 4-word fast path: 128 and 512 bits
// alongside the 256-bit benchmarks above, for maxConc > 64 pipelines.
func benchAnd(b *testing.B, nbits int) {
	x, y := New(nbits), New(nbits)
	y.Fill(nbits * 3 / 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkAnd128(b *testing.B) { benchAnd(b, 128) }
func BenchmarkAnd512(b *testing.B) { benchAnd(b, 512) }

func benchAndNotIsZero(b *testing.B, nbits int) {
	x, mask := New(nbits), New(nbits)
	x.Set(nbits / 4)
	mask.Fill(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.AndNotIsZero(mask)
	}
}

func BenchmarkAndNotIsZero128(b *testing.B) { benchAndNotIsZero(b, 128) }
func BenchmarkAndNotIsZero512(b *testing.B) { benchAndNotIsZero(b, 512) }

func benchIsZero(b *testing.B, nbits int) {
	v := New(nbits)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.IsZero()
	}
}

func BenchmarkIsZero256(b *testing.B) { benchIsZero(b, 256) }
func BenchmarkIsZero512(b *testing.B) { benchIsZero(b, 512) }

func BenchmarkAnd1024(b *testing.B) { benchAnd(b, 1024) }
