package obs

import (
	"runtime"
	"sync"
	"time"
)

// RegisterRuntimeMetrics adds Go runtime gauges (goroutines, heap, GC)
// to the registry, for the cjoind -pprof profile where operators want
// process health next to pipeline metrics. MemStats reads are cached
// for a second so a scrape hitting several gauges pays one
// ReadMemStats, not four.
func RegisterRuntimeMetrics(r *Registry) {
	var (
		mu   sync.Mutex
		at   time.Time
		ms   runtime.MemStats
		read = func() *runtime.MemStats {
			mu.Lock()
			defer mu.Unlock()
			if time.Since(at) > time.Second {
				runtime.ReadMemStats(&ms)
				at = time.Now()
			}
			return &ms
		}
	)
	r.GaugeFunc("cjoin_go_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("cjoin_go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(read().HeapAlloc) })
	r.GaugeFunc("cjoin_go_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS.",
		func() float64 { return float64(read().HeapSys) })
	r.GaugeFunc("cjoin_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(read().PauseTotalNs) / 1e9 })
	r.GaugeFunc("cjoin_go_gc_runs_total",
		"Completed GC cycles.",
		func() float64 { return float64(read().NumGC) })
}
