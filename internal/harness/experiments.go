package harness

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/engine"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/ref"
)

// Figure is one reproduced figure or table: named series over a shared
// x-axis, matching the rows/series the paper reports.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Series is one line of a Figure.
type Series struct {
	Name string
	Y    []float64
}

// RunFigure4 reproduces Figure 4: query throughput of the horizontal vs
// vertical pipeline configuration as the number of Stage threads grows.
// The paper's vertical configuration needs one thread per Filter (four
// for SSB), so its series starts at four threads, exactly as in §6.2.1.
func RunFigure4(cfg Config, maxThreads int, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if maxThreads <= 0 {
		maxThreads = 5
	}
	if n <= 0 {
		n = 16
	}
	fig := Figure{
		ID:     "figure4",
		Title:  "Figure 4: effect of pipeline configuration on performance",
		XLabel: "Stage threads",
		YLabel: "throughput (queries/hour)",
	}
	horiz := Series{Name: "Horizontal"}
	vert := Series{Name: "Vertical"}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	nDims := len(env.Dataset.Star.Dims)
	for threads := 1; threads <= maxThreads; threads++ {
		fig.X = append(fig.X, float64(threads))
		m, err := env.RunCJoin(n, core.Config{Layout: core.Horizontal, Workers: threads, MaxConcurrent: cfg.MaxConcurrent}, "")
		if err != nil {
			return fig, err
		}
		horiz.Y = append(horiz.Y, m.Throughput)
		if threads < nDims {
			vert.Y = append(vert.Y, 0) // not runnable: fewer threads than Filters
			continue
		}
		m, err = env.RunCJoin(n, core.Config{Layout: core.Vertical, MaxConcurrent: cfg.MaxConcurrent}, "")
		if err != nil {
			return fig, err
		}
		vert.Y = append(vert.Y, m.Throughput)
	}
	fig.Series = []Series{horiz, vert}
	return fig, nil
}

// defaultNs is the paper's concurrency sweep, scaled-down variants first.
func defaultNs(max int) []int {
	all := []int{1, 8, 32, 64, 128, 256}
	var out []int
	for _, n := range all {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

// systems runs one (system, n) cell for the concurrency experiments.
func runCell(env *Env, system string, n int, onlyTpl string) (Metrics, error) {
	switch system {
	case "CJOIN":
		return env.RunCJoin(n, core.Config{MaxConcurrent: env.Cfg.MaxConcurrent}, onlyTpl)
	case "System X":
		return env.RunEngine(engine.SystemXConfig(), n, onlyTpl)
	case "PostgreSQL":
		return env.RunEngine(engine.PostgresConfig(), n, onlyTpl)
	}
	return Metrics{}, fmt.Errorf("harness: unknown system %q", system)
}

var allSystems = []string{"CJOIN", "System X", "PostgreSQL"}

// RunFigure5 reproduces Figure 5: query throughput as the number of
// concurrent queries n grows, for CJOIN, System X and PostgreSQL
// (§6.2.2).
func RunFigure5(cfg Config, ns []int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = defaultNs(cfg.MaxConcurrent)
	}
	fig := Figure{
		ID:     "figure5",
		Title:  "Figure 5: query throughput scale-up with number of queries",
		XLabel: "concurrent queries (n)",
		YLabel: "throughput (queries/hour)",
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	for _, n := range ns {
		fig.X = append(fig.X, float64(n))
	}
	for _, sys := range allSystems {
		s := Series{Name: sys}
		for _, n := range ns {
			m, err := runCell(env, sys, n, "")
			if err != nil {
				return fig, err
			}
			s.Y = append(s.Y, m.Throughput)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// RunFigure6 reproduces Figure 6: average response time of template Q4.2
// versus n — the predictability experiment (§6.2.2). A stddev series per
// system is appended, supporting the paper's deviation claims.
func RunFigure6(cfg Config, ns []int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = defaultNs(cfg.MaxConcurrent)
	}
	fig := Figure{
		ID:     "figure6",
		Title:  "Figure 6: predictability of query response time (template Q4.2)",
		XLabel: "concurrent queries (n)",
		YLabel: "response time (seconds)",
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	for _, n := range ns {
		fig.X = append(fig.X, float64(n))
	}
	for _, sys := range allSystems {
		mean := Series{Name: sys}
		dev := Series{Name: sys + " stddev"}
		for _, n := range ns {
			m, err := runCell(env, sys, n, "Q4.2")
			if err != nil {
				return fig, err
			}
			st := m.AllLatency()
			mean.Y = append(mean.Y, st.Mean.Seconds())
			dev.Y = append(dev.Y, st.StdDev.Seconds())
		}
		fig.Series = append(fig.Series, mean, dev)
	}
	return fig, nil
}

// RunTable1 reproduces Table 1: CJOIN query submission time and response
// time for template Q4.2 as n grows (§6.2.2).
func RunTable1(cfg Config, ns []int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = []int{32, 64, 128, 256}
	}
	fig := Figure{
		ID:     "table1",
		Title:  "Table 1: influence of concurrency on query submission time (CJOIN, Q4.2)",
		XLabel: "concurrent queries (n)",
		YLabel: "seconds",
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	sub := Series{Name: "Submission time (s)"}
	resp := Series{Name: "Response time (s)"}
	for _, n := range ns {
		if n > cfg.MaxConcurrent {
			continue
		}
		fig.X = append(fig.X, float64(n))
		m, err := env.RunCJoin(n, core.Config{MaxConcurrent: cfg.MaxConcurrent}, "Q4.2")
		if err != nil {
			return fig, err
		}
		sub.Y = append(sub.Y, m.Submission.Seconds())
		resp.Y = append(resp.Y, m.AllLatency().Mean.Seconds())
	}
	fig.Series = []Series{sub, resp}
	return fig, nil
}

// RunFigure7 reproduces Figure 7: throughput versus predicate selectivity
// s for all three systems (§6.2.3).
func RunFigure7(cfg Config, sels []float64, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(sels) == 0 {
		sels = []float64{0.001, 0.01, 0.1}
	}
	if n <= 0 {
		n = 32
	}
	fig := Figure{
		ID:     "figure7",
		Title:  "Figure 7: influence of query selectivity on throughput",
		XLabel: "predicate selectivity (fraction)",
		YLabel: "throughput (queries/hour)",
	}
	for _, s := range sels {
		fig.X = append(fig.X, s)
	}
	for _, sys := range allSystems {
		series := Series{Name: sys}
		for _, s := range sels {
			c := cfg
			c.Selectivity = s
			env, err := NewEnv(c)
			if err != nil {
				return fig, err
			}
			m, err := runCell(env, sys, n, "")
			if err != nil {
				return fig, err
			}
			series.Y = append(series.Y, m.Throughput)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// RunTable2 reproduces Table 2: CJOIN submission and response time as
// predicate selectivity grows (§6.2.3).
func RunTable2(cfg Config, sels []float64, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(sels) == 0 {
		sels = []float64{0.001, 0.01, 0.1}
	}
	if n <= 0 {
		n = 32
	}
	fig := Figure{
		ID:     "table2",
		Title:  "Table 2: influence of predicate selectivity on query submission time (CJOIN, Q4.2)",
		XLabel: "predicate selectivity (fraction)",
		YLabel: "seconds",
	}
	sub := Series{Name: "Submission time (s)"}
	resp := Series{Name: "Response time (s)"}
	for _, s := range sels {
		fig.X = append(fig.X, s)
		c := cfg
		c.Selectivity = s
		env, err := NewEnv(c)
		if err != nil {
			return fig, err
		}
		m, err := env.RunCJoin(n, core.Config{MaxConcurrent: cfg.MaxConcurrent}, "Q4.2")
		if err != nil {
			return fig, err
		}
		sub.Y = append(sub.Y, m.Submission.Seconds())
		resp.Y = append(resp.Y, m.AllLatency().Mean.Seconds())
	}
	fig.Series = []Series{sub, resp}
	return fig, nil
}

// RunFigure8 reproduces Figure 8: normalized throughput (throughput × sf)
// as the data scale factor grows (§6.2.4).
func RunFigure8(cfg Config, sfs []int, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(sfs) == 0 {
		sfs = []int{1, 4, 16}
	}
	if n <= 0 {
		n = 32
	}
	fig := Figure{
		ID:     "figure8",
		Title:  "Figure 8: influence of data scale on throughput (normalized)",
		XLabel: "scale factor (sf)",
		YLabel: "throughput × sf (queries/hour)",
	}
	for _, sf := range sfs {
		fig.X = append(fig.X, float64(sf))
	}
	for _, sys := range allSystems {
		series := Series{Name: sys}
		for _, sf := range sfs {
			c := cfg
			c.SF = sf
			env, err := NewEnv(c)
			if err != nil {
				return fig, err
			}
			m, err := runCell(env, sys, n, "")
			if err != nil {
				return fig, err
			}
			series.Y = append(series.Y, m.Throughput*float64(sf))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// RunTable3 reproduces Table 3: CJOIN submission and response time as the
// data scale factor grows (§6.2.4).
func RunTable3(cfg Config, sfs []int, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(sfs) == 0 {
		sfs = []int{1, 4, 16}
	}
	if n <= 0 {
		n = 32
	}
	fig := Figure{
		ID:     "table3",
		Title:  "Table 3: influence of data scale on query submission overhead (CJOIN, Q4.2)",
		XLabel: "scale factor (sf)",
		YLabel: "seconds",
	}
	sub := Series{Name: "Submission time (s)"}
	resp := Series{Name: "Response time (s)"}
	for _, sf := range sfs {
		fig.X = append(fig.X, float64(sf))
		c := cfg
		c.SF = sf
		env, err := NewEnv(c)
		if err != nil {
			return fig, err
		}
		m, err := env.RunCJoin(n, core.Config{MaxConcurrent: cfg.MaxConcurrent}, "Q4.2")
		if err != nil {
			return fig, err
		}
		sub.Y = append(sub.Y, m.Submission.Seconds())
		resp.Y = append(resp.Y, m.AllLatency().Mean.Seconds())
	}
	fig.Series = []Series{sub, resp}
	return fig, nil
}

// RunDimAdmit measures the shared dimension plane: the same closed-loop
// workload over 1..N fact-partitioned pipelines, reporting per-query
// admission latency (both the end-to-end submission time and the plane's
// own dimension-admission wall time) and the peak resident bytes of the
// dimension stores. Before the plane, broadcasting a query re-ran
// Algorithm 1's dimension half on every shard — admission latency and
// dim-table memory both grew ×N; with admit-once both should stay
// roughly flat in shard count. Runs on an in-memory device unless a disk
// is modeled explicitly, for the same reason as RunShardScale.
//
// The figure additionally prices the batch-admission fast path: a
// repeated-template admission storm driven straight at a standalone
// plane — batches of one (Admit) with the predicate cache disabled (the
// pre-batching behavior) versus AdmitBatch in rounds of
// admitBenchBatch with the cache on — reporting admitted queries/sec
// for both, the speedup, the cache hit ratio, and the mean batch size.
func RunDimAdmit(cfg Config, shards []int, n int) (Figure, error) {
	if !cfg.Disk.Enabled() {
		cfg.MemDisk = true
	}
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		shards = []int{1, 2, 4, 8}
	}
	shards = dealableShards(cfg, shards)
	if n <= 0 {
		n = 16
	}
	fig := Figure{
		ID:     "dimadmit",
		Title:  fmt.Sprintf("Dimension plane: admission cost, batch/cache throughput, resident bytes vs shard count (%d-query closed loop)", n),
		XLabel: "shards",
		YLabel: "µs per admission, admitted q/s, bytes",
	}
	sub := Series{Name: "submission (µs/query)"}
	admit := Series{Name: "plane admit (µs/query)"}
	bytesS := Series{Name: "plane peak bytes"}
	admits := Series{Name: "plane admissions"}
	perQ := Series{Name: "per-query admit (q/s, cache off)"}
	batched := Series{Name: "batched admit (q/s, cache on)"}
	speedup := Series{Name: "batch speedup (×)"}
	hitRatio := Series{Name: "cache hit ratio"}
	meanBatch := Series{Name: "mean batch size"}
	for _, ns := range shards {
		ecfg := cfg
		ecfg.Shards = ns
		env, err := NewEnv(ecfg)
		if err != nil {
			return fig, err
		}
		m, st, err := env.runExecutor("CJOIN", n, core.Config{}, "")
		if err != nil {
			return fig, fmt.Errorf("shards=%d: %w", ns, err)
		}
		var admitMicros float64
		if st.DimAdmits > 0 {
			admitMicros = float64(st.DimAdmitNanos) / float64(st.DimAdmits) / 1e3
		}
		ab, err := env.admitThroughput(ns)
		if err != nil {
			return fig, fmt.Errorf("shards=%d admit bench: %w", ns, err)
		}
		fig.X = append(fig.X, float64(ns))
		sub.Y = append(sub.Y, float64(m.Submission.Microseconds()))
		admit.Y = append(admit.Y, admitMicros)
		bytesS.Y = append(bytesS.Y, float64(st.PlanePeakBytes))
		admits.Y = append(admits.Y, float64(st.DimAdmits))
		perQ.Y = append(perQ.Y, ab.perQueryQPS)
		batched.Y = append(batched.Y, ab.batchedQPS)
		var x float64
		if ab.perQueryQPS > 0 {
			x = ab.batchedQPS / ab.perQueryQPS
		}
		speedup.Y = append(speedup.Y, x)
		hitRatio.Y = append(hitRatio.Y, ab.hitRatio)
		meanBatch.Y = append(meanBatch.Y, ab.meanBatch)
	}
	fig.Series = []Series{sub, admit, bytesS, admits, perQ, batched, speedup, hitRatio, meanBatch}
	return fig, nil
}

// Admission-storm shape: admitBenchDistinct templates cycle through the
// storm (a dashboard-style workload where predicate text repeats), each
// round fills every slot before retiring them all, and the batched
// variant drains admitBenchBatch queries per AdmitBatch round — the
// admission queue's drain bound in cmd/cjoind's -admit-batch default.
const (
	admitBenchDistinct = 8
	admitBenchBatch    = 16
	admitBenchRounds   = 4
)

// admitBench is one admitThroughput measurement.
type admitBench struct {
	perQueryQPS float64 // one-at-a-time Admit, predicate cache disabled
	batchedQPS  float64 // AdmitBatch rounds, predicate cache enabled
	hitRatio    float64 // cache hits / resolutions on the batched plane
	meanBatch   float64 // queries per AdmitBatch round observed
}

// admitThroughput measures pure admission throughput of the dimension
// plane under a repeated-template storm: only Admit/AdmitBatch wall
// time is on the clock (slot retirement between rounds is not — the
// quantity under test is Algorithm 1's dimension half, which batching
// and caching amortize). The plane is built with the given prober count
// so the slot ledger matches the sharded topology being swept.
func (e *Env) admitThroughput(probers int) (admitBench, error) {
	work, err := e.buildWork(1, "")
	if err != nil {
		return admitBench{}, err
	}
	if len(work) < admitBenchDistinct {
		return admitBench{}, fmt.Errorf("harness: %d bound queries, need %d", len(work), admitBenchDistinct)
	}
	work = work[:admitBenchDistinct]
	mc := e.Cfg.MaxConcurrent
	ctx := context.Background()
	star := e.Dataset.Star

	retireAll := func(pl *dimplane.Plane, slots []int) {
		for _, s := range slots {
			for p := 0; p < probers; p++ {
				pl.Retire(s)
			}
		}
	}

	var b admitBench
	// Baseline: the pre-batching behavior — one round per query, every
	// admission re-scans its dimension predicates.
	base := dimplane.New(star, probers, dimplane.Config{MaxConcurrent: mc, PredCacheSize: -1})
	var dur time.Duration
	total := 0
	for r := 0; r < admitBenchRounds; r++ {
		slots := make([]int, 0, mc)
		t0 := time.Now()
		for j := 0; j < mc; j++ {
			s, err := base.Admit(ctx, work[j%admitBenchDistinct].bound)
			if err != nil {
				return b, err
			}
			slots = append(slots, s)
		}
		dur += time.Since(t0)
		total += len(slots)
		retireAll(base, slots)
	}
	if dur > 0 {
		b.perQueryQPS = float64(total) / dur.Seconds()
	}

	// Batched: AdmitBatch in rounds of admitBenchBatch with the
	// predicate-scan cache on — one snapshot publication per store per
	// round, repeated templates resolved from the cache.
	pl := dimplane.New(star, probers, dimplane.Config{MaxConcurrent: mc, PredCacheSize: 0})
	dur, total = 0, 0
	for r := 0; r < admitBenchRounds; r++ {
		slots := make([]int, 0, mc)
		t0 := time.Now()
		for j := 0; j < mc; j += admitBenchBatch {
			k := admitBenchBatch
			if j+k > mc {
				k = mc - j
			}
			qs := make([]*query.Bound, k)
			for i := range qs {
				qs[i] = work[(j+i)%admitBenchDistinct].bound
			}
			ss, err := pl.AdmitBatch(ctx, qs)
			if err != nil {
				return b, err
			}
			slots = append(slots, ss...)
		}
		dur += time.Since(t0)
		total += len(slots)
		retireAll(pl, slots)
	}
	if dur > 0 {
		b.batchedQPS = float64(total) / dur.Seconds()
	}
	st := pl.Stats()
	if res := st.CacheHits + st.CacheMisses; res > 0 {
		b.hitRatio = float64(st.CacheHits) / float64(res)
	}
	if st.BatchAdmits > 0 {
		b.meanBatch = float64(st.BatchQueries) / float64(st.BatchAdmits)
	}
	return b, nil
}

// RunZoneMapSweep measures page-level zone-map pruning (PR 9): date-window
// join queries of decreasing width — w is the window's fraction of the date
// key span — run one at a time against the same date-clustered dataset with
// zone maps off (the §5 partition-granular baseline; on an unpartitioned
// heap, no pruning at all) versus on, reporting mean pages charged per
// query and mean response time for both. Every result is compared
// bit-exactly against internal/ref ground truth; any divergence aborts the
// sweep — a pruning optimization that changes answers is a bug, not a data
// point. Queries run sequentially so per-query page counts are exact and
// the two variants never contend for the simulated device.
func RunZoneMapSweep(cfg Config, widths []float64, qPerWidth int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(widths) == 0 {
		widths = []float64{1, 0.5, 0.25, 0.1, 0.05}
	}
	if qPerWidth <= 0 {
		qPerWidth = 6
	}
	fig := Figure{
		ID:     "zonemap",
		Title:  fmt.Sprintf("Zone-map pruning: pages charged and response time vs date-window width (%d queries per point)", qPerWidth),
		XLabel: "date window (fraction of key span)",
		YLabel: "pages/query, response ms, reduction %",
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	keys := env.Dataset.DateKeys
	type zmQuery struct {
		width int // index into widths
		sql   string
		bound *query.Bound
		want  []agg.Result
	}
	var qs []zmQuery
	for wi, w := range widths {
		k := int(w * float64(len(keys)))
		if k < 1 {
			k = 1
		}
		if k > len(keys) {
			k = len(keys)
		}
		for i := 0; i < qPerWidth; i++ {
			// Window start slides across the key span so each width
			// samples several disjoint regions of the (date-clustered)
			// fact table, not just its head.
			lo := 0
			if qPerWidth > 1 {
				lo = i * (len(keys) - k) / (qPerWidth - 1)
			}
			sql := fmt.Sprintf(
				"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year",
				keys[lo], keys[lo+k-1])
			b, err := query.ParseBind(sql, env.Dataset.Star)
			if err != nil {
				return fig, fmt.Errorf("harness: %w", err)
			}
			b.Snapshot = env.Dataset.Txn.Begin()
			want, err := ref.Execute(b)
			if err != nil {
				return fig, err
			}
			qs = append(qs, zmQuery{width: wi, sql: sql, bound: b, want: want})
		}
	}
	// measure runs every query against one executor variant and returns
	// per-width means. Both variants are ref-checked bit-exactly, so
	// off/on parity is transitively exact.
	measure := func(disableZM bool) (pages, lat []float64, err error) {
		exec, err := env.NewExecutor(core.Config{DisableZoneMaps: disableZM})
		if err != nil {
			return nil, nil, err
		}
		defer exec.Stop()
		pages = make([]float64, len(widths))
		lat = make([]float64, len(widths))
		counts := make([]int, len(widths))
		for _, q := range qs {
			t0 := time.Now()
			h, err := exec.Submit(q.bound)
			if err != nil {
				return nil, nil, err
			}
			res := h.Wait()
			elapsed := time.Since(t0)
			if res.Err != nil {
				return nil, nil, res.Err
			}
			if !ref.ResultsEqual(res.Rows, q.want) {
				return nil, nil, fmt.Errorf("harness: zonemaps=%v diverges from reference on %q", !disableZM, q.sql)
			}
			pages[q.width] += float64(h.PagesScanned())
			lat[q.width] += float64(elapsed.Milliseconds())
			counts[q.width]++
		}
		for i := range pages {
			pages[i] /= float64(counts[i])
			lat[i] /= float64(counts[i])
		}
		return pages, lat, nil
	}
	pagesOff, latOff, err := measure(true)
	if err != nil {
		return fig, err
	}
	pagesOn, latOn, err := measure(false)
	if err != nil {
		return fig, err
	}
	reduction := make([]float64, len(widths))
	for i := range widths {
		if pagesOff[i] > 0 {
			reduction[i] = (pagesOff[i] - pagesOn[i]) / pagesOff[i] * 100
		}
	}
	fig.X = widths
	fig.Series = []Series{
		{Name: "pages/query (zonemaps off)", Y: pagesOff},
		{Name: "pages/query (zonemaps on)", Y: pagesOn},
		{Name: "page reduction (%)", Y: reduction},
		{Name: "response time off (ms)", Y: latOff},
		{Name: "response time on (ms)", Y: latOn},
	}
	return fig, nil
}

// dealableShards drops shard counts a partitioned star cannot run
// (shard.New needs at least one partition per shard), so a sweep like
// the default 1,2,4,8 over -partitions 4 measures every runnable point
// instead of aborting — and discarding completed points — at the first
// undealable one. The cap is reported, not silent.
func dealableShards(cfg Config, shards []int) []int {
	if cfg.Partitions <= 1 {
		return shards
	}
	var out []int
	for _, ns := range shards {
		if ns <= cfg.Partitions {
			out = append(out, ns)
		} else {
			fmt.Fprintf(os.Stderr,
				"harness: skipping shards=%d (only %d partitions to deal; run with more -partitions)\n",
				ns, cfg.Partitions)
		}
	}
	return out
}

// snapSum sums every snapshot entry whose key starts with prefix — one
// unlabeled series, or all the per-shard series of a labeled family.
func snapSum(snap map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// histMean derives the mean observation of a (possibly shard-labeled)
// histogram family from a registry snapshot, in the family's unit.
func histMean(snap map[string]float64, name string) float64 {
	cnt := snapSum(snap, name+"_count")
	if cnt == 0 {
		return 0
	}
	return snapSum(snap, name+"_sum") / cnt
}

// RunObsOverhead measures the telemetry plane's hot-path cost: the
// RunShardScale workload run per shard count over identical datasets —
// instrumentation compiled down to no-ops (nil registry) versus fully
// enabled, best of a few repetitions each — reporting peak throughput
// for both and the relative overhead. The enabled run's registry snapshot also yields the
// per-stage breakdown (mean queue wait, plane admit, scan cycle, filter
// batch) that the metrics exist to provide, so one experiment both
// prices the telemetry and demonstrates it. Same in-memory-device
// rationale as RunShardScale: the hot-path cost being measured is CPU.
func RunObsOverhead(cfg Config, shards []int, n int) (Figure, error) {
	if !cfg.Disk.Enabled() {
		cfg.MemDisk = true
	}
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		shards = []int{1, 4}
	}
	if n <= 0 {
		n = 32
	}
	shards = dealableShards(cfg, shards)
	fig := Figure{
		ID:     "obsoverhead",
		Title:  fmt.Sprintf("Telemetry overhead: %d-query closed loop, metrics off vs on", n),
		XLabel: "shards",
		YLabel: "throughput (queries/hour), stage means",
	}
	off := Series{Name: "q/hour (obs off)"}
	on := Series{Name: "q/hour (obs on)"}
	ovh := Series{Name: "overhead (%)"}
	admit := Series{Name: "plane admit mean (µs)"}
	cycle := Series{Name: "scan cycle mean (ms)"}
	fbatch := Series{Name: "filter batch mean (µs)"}
	// Interleaved median-of-reps: a single closed loop over a small star
	// has more run-to-run variance (scheduler, page cache, allocator
	// growth) than the effect being priced, so each variant runs several
	// times with the off/on pairs alternated — machine-load drift hits
	// both sides equally — and the medians are compared.
	const reps = 5
	run := func(ecfg Config) (float64, error) {
		env, err := NewEnv(ecfg)
		if err != nil {
			return 0, err
		}
		m, _, err := env.runExecutor("CJOIN", n, core.Config{}, "")
		if err != nil {
			return 0, err
		}
		return m.Throughput, nil
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		if n := len(xs); n%2 == 1 {
			return xs[n/2]
		} else {
			return (xs[n/2-1] + xs[n/2]) / 2
		}
	}
	for _, ns := range shards {
		ecfg := cfg
		ecfg.Shards = ns
		// Fresh registry per cell so stage means cover exactly this
		// cell's instrumented runs.
		reg := obs.NewRegistry()
		var offs, ons []float64
		for r := 0; r < reps; r++ {
			ecfg.Obs = nil
			t, err := run(ecfg)
			if err != nil {
				return fig, fmt.Errorf("shards=%d obs off: %w", ns, err)
			}
			offs = append(offs, t)
			ecfg.Obs = reg
			if t, err = run(ecfg); err != nil {
				return fig, fmt.Errorf("shards=%d obs on: %w", ns, err)
			}
			ons = append(ons, t)
		}
		tOff, tOn := median(offs), median(ons)
		snap := reg.Snapshot()
		fig.X = append(fig.X, float64(ns))
		off.Y = append(off.Y, tOff)
		on.Y = append(on.Y, tOn)
		var pct float64
		if tOff > 0 {
			pct = (tOff - tOn) / tOff * 100
		}
		ovh.Y = append(ovh.Y, pct)
		admit.Y = append(admit.Y, histMean(snap, "cjoin_dimplane_admit_seconds")*1e6)
		cycle.Y = append(cycle.Y, histMean(snap, "cjoin_scan_cycle_seconds")*1e3)
		fbatch.Y = append(fbatch.Y, histMean(snap, "cjoin_filter_batch_seconds")*1e6)
	}
	fig.Series = []Series{off, on, ovh, admit, cycle, fbatch}
	return fig, nil
}

// RunShardScale measures the sharded execution tier: the same closed-loop
// workload at concurrency n, run over 1..N fact-partitioned pipelines.
// It reports throughput and the aggregate scan rate (pages consumed per
// second across all shards) — the quantity the single-pipeline design
// bounds and sharding is meant to lift. With cfg.Partitions > 1 the fact
// table is range-partitioned and the group deals whole partitions to
// shards (pruning intact) instead of striding pages, so the same sweep
// measures the partition-dealt topology. The dataset lives on an
// unthrottled in-memory device unless the caller models a disk
// explicitly: on the simulated single spindle every shard serializes
// behind the same head, so the CPU scaling this experiment targets would
// be invisible.
func RunShardScale(cfg Config, shards []int, n int) (Figure, error) {
	if !cfg.Disk.Enabled() {
		cfg.MemDisk = true
	}
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		shards = []int{1, 2, 4, 8}
	}
	if n <= 0 {
		n = 32
	}
	shards = dealableShards(cfg, shards)
	topology := "page-strided"
	if cfg.Partitions > 1 {
		topology = fmt.Sprintf("partition-dealt (%d range partitions)", cfg.Partitions)
	}
	fig := Figure{
		ID:     "shardscale",
		Title:  fmt.Sprintf("Shard scaling: %d-query closed loop over N %s pipelines", n, topology),
		XLabel: "shards",
		YLabel: "throughput (queries/hour), scan rate (pages/s)",
	}
	thr := Series{Name: "CJOIN q/hour"}
	scan := Series{Name: "scan pages/s"}
	sub := Series{Name: "submission (s)"}
	for _, ns := range shards {
		ecfg := cfg
		ecfg.Shards = ns
		env, err := NewEnv(ecfg)
		if err != nil {
			return fig, err
		}
		m, st, err := env.runExecutor("CJOIN", n, core.Config{}, "")
		if err != nil {
			return fig, fmt.Errorf("shards=%d: %w", ns, err)
		}
		fig.X = append(fig.X, float64(ns))
		thr.Y = append(thr.Y, m.Throughput)
		scan.Y = append(scan.Y, float64(st.PagesRead)/m.Elapsed.Seconds())
		sub.Y = append(sub.Y, m.Submission.Seconds())
	}
	fig.Series = []Series{thr, scan, sub}
	return fig, nil
}
