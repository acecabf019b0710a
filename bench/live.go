package main

import (
	"context"
	"fmt"
	"sort"
	"syscall"
	"time"

	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

// The daemon under test: cjoind's flags beyond rows and shards are
// fixed, so every BENCH file describes the same system.
const (
	datasetSeed = 42
	maxConc     = 64
	admitBatch  = 16 // cjoind's -admit-batch default, mirrored by the traced stack
)

// Validity limits of the load generator: beyond them a run measures the
// generator, not cjoind.
const (
	maxSchedLagP95 = 5 * time.Millisecond
	maxGenCPUShare = 0.35
)

// checkBudget bounds the off-the-clock answer check of one run.
const checkBudget = 10 * time.Second

// options are the bench's own settings for one run.
type options struct {
	rows   int
	shards int
	seed   int64
	setups int           // cjoind starts timed for setup_s
	warm   time.Duration // load applied before the measured window
	window time.Duration // measured window of the live run
	traced time.Duration // measured window of the traced run
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value, where it is a
	// statistic of samples.
	N int `json:"n,omitempty"`
}

// runResult is everything one workload's run measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checked   int               `json:"checked"`
	NonEmpty  int               `json:"checked_non_empty"`
	Correct   bool              `json:"correct"`
	Invalid   []string          `json:"invalid,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`

	answers []*refAnswer // distinct checked result sets, for encode/decode timing
}

// fail records a failure message; the first few are reported.
func (r *runResult) fail(msg string) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, msg)
	}
}

// probe is one reading of the daemon's counters and both processes' CPU.
type probe struct {
	at      time.Time
	stats   server.StatsResponse
	prom    map[string]float64
	cpu     float64 // cjoind user+sys seconds
	selfCPU float64 // the bench's own user+sys seconds
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeProbe(ctx context.Context, cl *client.Client, pid int) (probe, error) {
	p := probe{at: time.Now(), selfCPU: selfCPU()}
	var err error
	if p.stats, err = cl.Stats(ctx); err != nil {
		return p, fmt.Errorf("GET /stats: %w", err)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		return p, fmt.Errorf("GET /metrics: %w", err)
	}
	p.prom = promSums(text)
	p.cpu, err = procCPU(pid)
	return p, err
}

// httpFloor is the median round trip of GET /healthz on an idle server:
// what any request costs before cjoind does work for it.
func httpFloor(ctx context.Context, cl *client.Client) time.Duration {
	const n = 200
	rtts := make([]float64, n)
	for i := range rtts {
		t := time.Now()
		cl.Healthy(ctx)
		rtts[i] = float64(time.Since(t))
	}
	return time.Duration(median(rtts))
}

// windowSlices is how many equal parts the measured window is cut into. Every
// windowed end-to-end metric is the median of its per-slice values, so
// that one stall (a long GC cycle, a neighbour's burst) moves one slice
// and not the number. The whole-window p99 and maximum are printed
// beside them, so stalls stay visible.
const windowSlices = 5

// sliceOf returns which slice of the window a request completed in, or
// -1 when it completed outside the window. cuts holds windowSlices+1 times.
func sliceOf(cuts []time.Time, done time.Time) int {
	if done.Before(cuts[0]) || !done.Before(cuts[len(cuts)-1]) {
		return -1
	}
	i := 0
	for !done.Before(cuts[i+1]) {
		i++
	}
	return i
}

// tally counts the samples into r and returns, per slice, the sorted
// latencies in ms of the successful ones.
func tally(r *runResult, samples []*sample, cuts []time.Time) [][]float64 {
	out := make([][]float64, len(cuts)-1)
	for _, s := range samples {
		i := sliceOf(cuts, s.done)
		if i < 0 {
			continue
		}
		r.Attempted++
		if s.failure != "" {
			r.Failed++
			r.fail(s.failure)
			continue
		}
		out[i] = append(out[i], ms(s.latency()))
	}
	for _, lat := range out {
		sort.Float64s(lat)
	}
	return out
}

// overSlices is the median over the non-empty windowSlices of f(slice).
func overSlices(lat [][]float64, f func(i int, lat []float64) float64) float64 {
	var vals []float64
	for i, l := range lat {
		if len(l) > 0 {
			vals = append(vals, f(i, l))
		}
	}
	return median(vals)
}

// runLive measures one workload against a fresh cjoind child process,
// tracing off: end-to-end metrics on the client clock, per-layer counts
// from /stats and /metrics deltas over the same window, then the answer
// check off the clock.
func runLive(ctx context.Context, bin string, w workload, o options) (*runResult, error) {
	flags := daemonFlags(o.rows, o.shards)
	d, setups, err := measureSetup(bin, flags, o.setups)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	pid := d.cmd.Process.Pid

	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: o.rows, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	factPages := ds.Lineorder.Heap.NumPages()
	cl := client.New(d.base)
	floor := httpFloor(ctx, cl)

	ld := startLoad(ctx, d.base, w.lanes(ds, o.seed), checkEvery)
	time.Sleep(o.warm)
	before, err := takeProbe(ctx, cl, pid)
	if err != nil {
		ld.stop()
		return nil, err
	}
	// At each slice boundary only the daemon's CPU time is read; the
	// counters are read again at the end of the window.
	cuts, cpuAt := []time.Time{before.at}, []float64{before.cpu}
	var after probe
	for i := 1; i <= windowSlices && err == nil; i++ {
		time.Sleep(time.Until(before.at.Add(o.window * time.Duration(i) / windowSlices)))
		if i < windowSlices {
			var cpu float64
			cpu, err = procCPU(pid)
			cuts, cpuAt = append(cuts, time.Now()), append(cpuAt, cpu)
			continue
		}
		after, err = takeProbe(ctx, cl, pid)
		cuts, cpuAt = append(cuts, after.at), append(cpuAt, after.cpu)
	}
	rss, rssErr := procPeakRSS(pid)
	samples := ld.stop()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	r := &runResult{Workload: w.name, Correct: true}
	var reads, commits []*sample
	for _, s := range samples {
		if sliceOf(cuts, s.done) < 0 {
			continue
		}
		if s.update != nil {
			commits = append(commits, s)
		} else {
			reads = append(reads, s)
		}
	}
	lat := tally(r, reads, cuts)
	clat := tally(r, commits, cuts)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	n := len(all)
	if n == 0 {
		return nil, fmt.Errorf("%s: no query completed in the measured window; first failures: %v", w.name, r.Failures)
	}
	secs := after.at.Sub(before.at).Seconds()
	completed := float64(n)
	sliceSecs := func(i int) float64 { return cuts[i+1].Sub(cuts[i]).Seconds() }

	// Answer check, off the clock.
	var kept, allCommits []*sample
	for _, s := range samples {
		switch {
		case s.update != nil:
			allCommits = append(allCommits, s)
		case s.resp != nil:
			kept = append(kept, s)
		}
	}
	var chk checkResult
	if len(allCommits) > 0 {
		if err := mirrorCommits(ds, allCommits); err != nil {
			r.fail(err.Error())
		}
		chk = checkQuiesced(ctx, cl, ds, quiescedQueries(ds, o.seed))
	} else {
		chk = checkAnswers(ds, kept, checkBudget)
	}
	r.Checked, r.NonEmpty, r.answers = chk.checked, chk.nonEmpty, chk.answers
	for _, msg := range chk.wrong {
		r.Attempted++
		r.Failed++
		r.fail(msg)
	}

	r.EndToEnd = map[string]metric{
		"setup_s":       {median(setups), "s", len(setups)},
		"query_p50_ms":  {overSlices(lat, func(_ int, l []float64) float64 { return percentile(l, 0.50) }), "ms", n},
		"query_p95_ms":  {overSlices(lat, func(_ int, l []float64) float64 { return percentile(l, 0.95) }), "ms", n},
		"query_p99_ms":  {percentile(all, 0.99), "ms", n},
		"query_max_ms":  {all[n-1], "ms", n},
		"queries_per_s": {overSlices(lat, func(i int, l []float64) float64 { return float64(len(l)) / sliceSecs(i) }), "1/s", n},
		"failed_share":  {ratio(float64(r.Failed), float64(r.Attempted)), "share", r.Attempted},
		"cpu_s_per_kquery": {overSlices(lat, func(i int, l []float64) float64 {
			return (cpuAt[i+1] - cpuAt[i]) / float64(len(l)) * 1000
		}), "s", n},
		"rss_peak_mb": {rss, "MB", 1},
	}
	if len(commits) > 0 {
		r.EndToEnd["commit_p50_ms"] = metric{overSlices(clat, func(_ int, l []float64) float64 { return percentile(l, 0.50) }), "ms", len(commits)}
	}

	// Per-layer counts: deltas of the daemon's own counters over the
	// measured window.
	ps0, ps1 := before.stats.Pipeline, after.stats.Pipeline
	d64 := func(a, b int64) float64 { return float64(b - a) }
	prom := func(name string) float64 { return after.prom[name] - before.prom[name] }
	admitted := d64(before.stats.Admission.Admitted, after.stats.Admission.Admitted)
	hits, misses := d64(ps0.PlaneCacheHits, ps1.PlaneCacheHits), d64(ps0.PlaneCacheMisses, ps1.PlaneCacheMisses)
	pruned := d64(ps0.PagesPrunedZonemap+ps0.PagesPrunedPartition, ps1.PagesPrunedZonemap+ps1.PagesPrunedPartition)
	scanned := d64(ps0.TuplesScanned, ps1.TuplesScanned)
	// The Filters' counters decay every optimizer interval, so they
	// describe recent traffic and are read at the end of the window, not
	// as a delta. A tuple survives the chain if it survives every
	// Filter, whatever their order at the time.
	survive, probed := 1.0, int64(0)
	for _, f := range ps1.Filters {
		survive *= 1 - ratio(float64(f.Drops), float64(f.TuplesIn))
		probed = max(probed, f.TuplesIn)
	}

	var lags, submits []float64
	for _, s := range append(reads, commits...) {
		lags = append(lags, ms(s.lag()))
		if s.update == nil && s.failure == "" {
			submits = append(submits, us(s.acked.Sub(s.sent)))
		}
	}
	sort.Float64s(lags)
	genCPU, daemonCPU := after.selfCPU-before.selfCPU, after.cpu-before.cpu

	r.PerLayer = map[string]metric{
		"server.submit_rtt_us":         {median(submits), "us", len(submits)},
		"server.http_floor_us":         {us(floor), "us", 200},
		"admission.max_depth":          {float64(after.stats.Admission.MaxDepth), "count", 1},
		"admission.batch_size":         {ratio(d64(ps0.PlaneBatchQueries, ps1.PlaneBatchQueries), d64(ps0.PlaneBatchAdmits, ps1.PlaneBatchAdmits)), "count", int(d64(ps0.PlaneBatchAdmits, ps1.PlaneBatchAdmits))},
		"dimplane.admit_us":            {ratio(d64(ps0.DimAdmitMicros, ps1.DimAdmitMicros), d64(ps0.DimAdmits, ps1.DimAdmits)), "us", int(d64(ps0.DimAdmits, ps1.DimAdmits))},
		"dimplane.cache_hit_ratio":     {ratio(hits, hits+misses), "share", int(hits + misses)},
		"dimplane.publishes_per_query": {ratio(d64(ps0.PlanePublishes, ps1.PlanePublishes), admitted), "count", int(admitted)},
		"dimplane.cache_invalidations": {prom("cjoin_dimcache_invalidations_total"), "count", 1},
		"core.pages_per_query":         {d64(ps0.PagesRead, ps1.PagesRead) / completed, "count", n},
		"core.pages_pruned_share":      {ratio(pruned, admitted*float64(factPages)), "share", int(admitted)},
		"core.tuples_per_query":        {scanned / completed, "count", n},
		"core.filter_drop_rate":        {1 - survive, "share", int(probed)},
		"core.cycles_per_s":            {d64(ps0.ScanCycles, ps1.ScanCycles) / float64(o.shards) / secs, "1/s", int(d64(ps0.ScanCycles, ps1.ScanCycles))},
		"txn.commit_rtt_us":            {0, "us", 0},
		"txn.commit_server_us":         {ratio(prom("cjoin_commit_seconds_sum"), prom("cjoin_commit_seconds_count")) * 1e6, "us", int(prom("cjoin_commit_seconds_count"))},
		"txn.commits_per_s":            {float64(len(commits)) / secs, "1/s", len(commits)},
		"txn.late_share":               {0, "share", len(commits)},
		"proc.gc_pause_ms_per_s":       {prom("cjoin_go_gc_pause_seconds_total") * 1000 / secs, "ms/s", int(prom("cjoin_go_gc_runs_total"))},
		"proc.heap_alloc_mb":           {after.prom["cjoin_go_heap_alloc_bytes"] / (1 << 20), "MB", 1},
		"gen.sched_lag_p95_ms":         {percentile(lags, 0.95), "ms", len(lags)},
		"gen.cpu_share":                {ratio(genCPU, genCPU+daemonCPU), "share", 1},
	}
	if len(commits) > 0 {
		var rtts []float64
		late := 0
		for _, s := range commits {
			rtts = append(rtts, us(s.done.Sub(s.sent)))
			if s.lag() > time.Millisecond {
				late++
			}
		}
		r.PerLayer["txn.commit_rtt_us"] = metric{median(rtts), "us", len(rtts)}
		r.PerLayer["txn.late_share"] = metric{float64(late) / float64(len(commits)), "share", len(commits)}
	}

	if lag := r.PerLayer["gen.sched_lag_p95_ms"].Value; lag > ms(maxSchedLagP95) {
		r.Invalid = append(r.Invalid, fmt.Sprintf("gen.sched_lag_p95_ms %.2f > %.0f: the generator ran late", lag, ms(maxSchedLagP95)))
	}
	if share := r.PerLayer["gen.cpu_share"].Value; share > maxGenCPUShare {
		r.Invalid = append(r.Invalid, fmt.Sprintf("gen.cpu_share %.2f > %.2f: the generator took too much of the machine", share, maxGenCPUShare))
	}
	return r, nil
}
