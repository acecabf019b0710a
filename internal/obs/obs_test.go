package obs

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden locks down the text exposition format: family
// sorting, HELP/TYPE headers, label ordering and escaping, cumulative
// histogram buckets with +Inf, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "requests with \\ and\nnewline").Add(3)
	cv := r.CounterVec("t_faults_total", "faults by site.", "site", "shard")
	cv.With("sc\"an\n\\err", "0").Inc()
	cv.With("stall", "1").Add(2)
	r.Gauge("t_depth", "queue depth.").Set(7)
	r.GaugeFunc("t_frac", "a fraction.", func() float64 { return 2.5 })
	h := r.Histogram("t_size", "sizes.", []int64{1, 5}, 1)
	for _, v := range []int64{0, 2, 7} {
		h.Observe(v)
	}

	want := strings.Join([]string{
		"# HELP t_depth queue depth.",
		"# TYPE t_depth gauge",
		"t_depth 7",
		"# HELP t_faults_total faults by site.",
		"# TYPE t_faults_total counter",
		`t_faults_total{site="sc\"an\n\\err",shard="0"} 1`,
		`t_faults_total{site="stall",shard="1"} 2`,
		"# HELP t_frac a fraction.",
		"# TYPE t_frac gauge",
		"t_frac 2.5",
		`# HELP t_requests_total requests with \\ and\nnewline`,
		"# TYPE t_requests_total counter",
		"t_requests_total 3",
		"# HELP t_size sizes.",
		"# TYPE t_size histogram",
		`t_size_bucket{le="1"} 1`,
		`t_size_bucket{le="5"} 2`,
		`t_size_bucket{le="+Inf"} 3`,
		"t_size_sum 9",
		"t_size_count 3",
	}, "\n") + "\n"

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from parallel writers
// while scraping it, then checks nothing was lost. Run under -race this
// is the lock-freedom proof for the hot path.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat", "latency.", DurationBuckets(), 1e-9)
	const writers, perWriter = 8, 10000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Spread observations across the full bucket range.
				h.Observe(int64(w+1) * int64(i+1) * 137)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	// RawSum is the exact unscaled total; Sum is it in seconds.
	var want int64
	for w := int64(1); w <= writers; w++ {
		want += w * perWriter * (perWriter + 1) / 2 * 137
	}
	if got := h.RawSum(); got != want {
		t.Fatalf("RawSum = %d, want %d", got, want)
	}
	if got := h.Sum(); got != float64(want)*1e-9 {
		t.Fatalf("Sum = %v, want %v", got, float64(want)*1e-9)
	}
	// The +Inf cumulative bucket must equal the count.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	wantLine := `t_lat_bucket{le="+Inf"} 80000`
	if !strings.Contains(b.String(), wantLine) {
		t.Errorf("exposition missing %q:\n%s", wantLine, b.String())
	}
}

// TestRegistrationIdempotent checks that re-registering a family returns
// the same series — the mechanism letting N shard pipelines share
// families — and that a conflicting shape panics.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_total", "h")
	b := r.Counter("t_total", "h")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || a != b {
		t.Fatalf("re-registration did not return the shared series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	r.Gauge("t_total", "h")
}

func TestDurationBucketsAscending(t *testing.T) {
	b := DurationBuckets()
	if !sort.SliceIsSorted(b, func(i, j int) bool { return b[i] < b[j] }) {
		t.Fatalf("DurationBuckets not ascending: %v", b)
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer(2)
	a := tr.Start("a")
	a.Mark(StageEnqueued)
	a.Mark(StageAdmitted)
	a.Mark(StageAdmitted) // first-wins: must not duplicate
	if got := len(a.Stages()); got != 2 {
		t.Fatalf("marks = %d, want 2", got)
	}
	first := a.Stages()[1].At
	a.MarkLatest(StageCycleComplete)
	a.MarkLatest(StageCycleComplete) // last-wins: overwrite, not append
	if got := len(a.Stages()); got != 3 {
		t.Fatalf("marks after MarkLatest = %d, want 3", got)
	}
	if !a.Has(StageCycleComplete) || a.Has(StageDelivered) {
		t.Fatal("Has misreports stages")
	}
	if a.Stages()[2].At < first {
		t.Fatal("stage offsets not monotonic")
	}

	// FIFO eviction at capacity 2.
	tr.Start("b")
	tr.Start("c")
	if tr.Get("a") != nil {
		t.Fatal("oldest trace not evicted")
	}
	if tr.Get("b") == nil || tr.Get("c") == nil {
		t.Fatal("recent traces lost")
	}
	tr.Drop("b")
	if tr.Get("b") != nil {
		t.Fatal("Drop left the trace behind")
	}

	// Nil-safety of the whole trace surface.
	var nilTr *Tracer
	if nilTr.Start("x") != nil || nilTr.Get("x") != nil {
		t.Fatal("nil tracer must return nil")
	}
	nilTr.Drop("x")
	var nilTrace *Trace
	nilTrace.Mark(StageEnqueued)
	nilTrace.MarkLatest(StageEnqueued)
	if nilTrace.Has(StageEnqueued) || nilTrace.Stages() != nil {
		t.Fatal("nil trace must no-op")
	}
}
