package obs

import (
	"testing"
	"time"
)

// The hot-path instrumentation cost, precisely: these bound what one
// counter bump or histogram observation adds to a pipeline stage,
// independent of the end-to-end noise floor (see PERFORMANCE.md).

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("b_ctr", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("b_ctr", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.DurationHistogram("b_lat", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(3000)
	}
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	r := NewRegistry()
	h := r.DurationHistogram("b_lat", "bench")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(start)
	}
}
