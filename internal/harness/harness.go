// Package harness drives the paper's evaluation (§6): it generates SSB
// datasets, runs closed-loop concurrent workloads against CJOIN and the
// two conventional baselines, and produces the series behind every figure
// and table in the evaluation section.
//
// Methodology follows §6.1.3: a workload is a deterministic stream of
// template-instantiated star queries; the degree of concurrency n is held
// constant by submitting the next query whenever one finishes; throughput
// is reported in queries/hour and predictability as the mean and standard
// deviation of per-template response times.
package harness

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/engine"
	"cjoin/internal/query"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// Env is one experimental environment: a generated dataset plus the
// device cost model shared by all systems under test.
type Env struct {
	Dataset *ssb.Dataset
	Cfg     Config
}

// Config sizes an experiment. Defaults target seconds-scale bench runs;
// cmd/cjoin-bench raises them for paper-scale sweeps.
type Config struct {
	// SF is the SSB scale factor.
	SF int
	// FactRowsPerSF maps one sf unit to fact rows.
	FactRowsPerSF int
	// Selectivity is the predicate selectivity knob s (§6.1.2).
	Selectivity float64
	// Queries is the number of measured queries per data point.
	Queries int
	// Seed drives workload sampling.
	Seed int64
	// Disk is the device cost model. Zero value uses DefaultDisk.
	Disk disk.Config
	// MaxConcurrent bounds CJOIN registration slots; it must be at least
	// the largest n measured.
	MaxConcurrent int
	// Workers is the CJOIN horizontal stage thread count.
	Workers int
	// PoolPages is the baseline engines' buffer pool size.
	PoolPages int
}

// DefaultDisk is the scaled device model: 100 MB/s sequential bandwidth
// with a 1 ms seek penalty — a disk-era seek:transfer asymmetry that
// penalizes interleaved scans, slow enough that the shared sequential
// scan (not pipeline CPU) dominates a CJOIN cycle, as in the paper's
// 100 GB testbed.
func DefaultDisk() disk.Config {
	return disk.Config{SeqBytesPerSec: 100 << 20, SeekPenalty: time.Millisecond}
}

func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 1
	}
	if c.FactRowsPerSF <= 0 {
		c.FactRowsPerSF = 5000
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
	if c.Queries <= 0 {
		c.Queries = 48
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !c.Disk.Enabled() {
		c.Disk = DefaultDisk()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 256
	}
	if c.PoolPages <= 0 {
		// Far smaller than the fact table, as in any real warehouse
		// (the default 5000-row/sf fact table spans ~95 pages per sf),
		// but large enough to hold a few read-ahead extents so baseline
		// scans are not pathologically evicted mid-extent.
		c.PoolPages = 64
	}
	return c
}

// NewEnv generates the dataset for cfg.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	ds, err := ssb.Generate(ssb.Config{
		SF:            cfg.SF,
		FactRowsPerSF: cfg.FactRowsPerSF,
		Seed:          cfg.Seed,
		Disk:          cfg.Disk,
	})
	if err != nil {
		return nil, err
	}
	return &Env{Dataset: ds, Cfg: cfg}, nil
}

// Metrics summarizes one workload run.
type Metrics struct {
	System     string
	N          int           // degree of concurrency
	Queries    int           // measured queries
	Elapsed    time.Duration // wall-clock for the measured queries
	Throughput float64       // queries per hour
	// Per-template response time statistics.
	Latency map[string]LatencyStats
	// Submission is the mean query registration time (CJOIN only).
	Submission time.Duration
}

// LatencyStats is mean/stddev of response time for one query template.
type LatencyStats struct {
	Count  int
	Mean   time.Duration
	StdDev time.Duration
}

// AllLatency folds every template into one LatencyStats using a weighted
// mean and pooled variance.
func (m Metrics) AllLatency() LatencyStats {
	var n int
	var sum, sumSq float64
	for _, s := range m.Latency {
		n += s.Count
		sum += float64(s.Mean) * float64(s.Count)
		// E[X^2] = Var + Mean^2 per template
		sumSq += (float64(s.StdDev)*float64(s.StdDev) + float64(s.Mean)*float64(s.Mean)) * float64(s.Count)
	}
	if n == 0 {
		return LatencyStats{}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return LatencyStats{Count: n, Mean: time.Duration(mean), StdDev: time.Duration(math.Sqrt(variance))}
}

type sample struct {
	template   string
	latency    time.Duration
	submission time.Duration
}

func summarize(system string, n int, samples []sample, elapsed time.Duration) Metrics {
	m := Metrics{
		System:  system,
		N:       n,
		Queries: len(samples),
		Elapsed: elapsed,
		Latency: make(map[string]LatencyStats),
	}
	if elapsed > 0 {
		m.Throughput = float64(len(samples)) / elapsed.Hours()
	}
	byTpl := make(map[string][]time.Duration)
	var subSum time.Duration
	for _, s := range samples {
		byTpl[s.template] = append(byTpl[s.template], s.latency)
		subSum += s.submission
	}
	if len(samples) > 0 {
		m.Submission = subSum / time.Duration(len(samples))
	}
	for tpl, ls := range byTpl {
		m.Latency[tpl] = latencyStats(ls)
	}
	return m
}

func latencyStats(ls []time.Duration) LatencyStats {
	if len(ls) == 0 {
		return LatencyStats{}
	}
	var sum float64
	for _, l := range ls {
		sum += float64(l)
	}
	mean := sum / float64(len(ls))
	var sq float64
	for _, l := range ls {
		d := float64(l) - mean
		sq += d * d
	}
	return LatencyStats{
		Count:  len(ls),
		Mean:   time.Duration(mean),
		StdDev: time.Duration(math.Sqrt(sq / float64(len(ls)))),
	}
}

// workItem is one pre-bound query.
type workItem struct {
	template string
	bound    *query.Bound
}

// buildWork binds the measured queries from the workload stream. At
// least 2n queries are bound so the closed loop reaches steady state
// (§6.1.3 measures queries 256…512 at n = 256 for the same reason:
// arrivals must be staggered by completions, not aligned by the initial
// batch). onlyTpl, if non-empty, restricts the stream to one template
// (Figure 6/Table 1 measure Q4.2).
func (e *Env) buildWork(n int, onlyTpl string) ([]workItem, error) {
	total := e.Cfg.Queries
	if total < 2*n {
		total = 2 * n
	}
	w := ssb.NewWorkload(e.Dataset, e.Cfg.Selectivity, e.Cfg.Seed)
	items := make([]workItem, 0, total)
	for len(items) < total {
		var id, text string
		var err error
		if onlyTpl != "" {
			id = onlyTpl
			text, err = w.FromTemplate(onlyTpl)
			if err != nil {
				return nil, err
			}
		} else {
			id, text = w.Next()
		}
		b, err := query.ParseBind(text, e.Dataset.Star)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		b.Snapshot = e.Dataset.Txn.Begin()
		items = append(items, workItem{template: id, bound: b})
	}
	return items, nil
}

// normalizeCore fills pipeline defaults from the experiment config.
func (e *Env) normalizeCore(coreCfg core.Config) core.Config {
	if coreCfg.MaxConcurrent == 0 {
		coreCfg.MaxConcurrent = e.Cfg.MaxConcurrent
	}
	if coreCfg.Workers == 0 {
		coreCfg.Workers = e.Cfg.Workers
	}
	if coreCfg.OptimizeInterval == 0 {
		coreCfg.OptimizeInterval = 50 * time.Millisecond
	}
	return coreCfg
}

// RunCJoin measures CJOIN at concurrency n with the given pipeline
// configuration (zero value: defaults) on a one-shard group.
func (e *Env) RunCJoin(n int, coreCfg core.Config, onlyTpl string) (Metrics, error) {
	coreCfg = e.normalizeCore(coreCfg)
	if n > coreCfg.MaxConcurrent {
		return Metrics{}, fmt.Errorf("harness: concurrency %d exceeds MaxConcurrent %d", n, coreCfg.MaxConcurrent)
	}
	exec, err := shard.New(e.Dataset.Star, shard.Config{Shards: 1, Core: coreCfg})
	if err != nil {
		return Metrics{}, err
	}
	exec.Start()
	defer exec.Stop()

	work, err := e.buildWork(n, onlyTpl)
	if err != nil {
		return Metrics{}, err
	}
	samples, elapsed, err := e.closedLoop(n, work, func(item workItem) (time.Duration, error) {
		h, err := exec.Submit(item.bound)
		// A delivered query's slot is released by the pipeline's manager
		// shortly after Wait returns, so at n == MaxConcurrent the next
		// submit can find every slot still taken. Retry until it frees;
		// the sample's latency still starts before the first attempt.
		for errors.Is(err, core.ErrTooManyQueries) {
			time.Sleep(100 * time.Microsecond)
			h, err = exec.Submit(item.bound)
		}
		if err != nil {
			return 0, err
		}
		res := h.Wait()
		if res.Err != nil {
			return 0, res.Err
		}
		return h.Submission(), nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return summarize("CJOIN", n, samples, elapsed), nil
}

// RunEngine measures a conventional baseline at concurrency n. The
// harness imposes its buffer-pool budget so the fact:memory ratio of the
// warehouse regime is preserved at the experiment's data scale.
func (e *Env) RunEngine(engCfg engine.Config, n int, onlyTpl string) (Metrics, error) {
	engCfg.BufferPoolPages = e.Cfg.PoolPages
	eng := engine.New(e.Dataset.Star, engCfg)
	work, err := e.buildWork(n, onlyTpl)
	if err != nil {
		return Metrics{}, err
	}
	samples, elapsed, err := e.closedLoop(n, work, func(item workItem) (time.Duration, error) {
		_, err := eng.Execute(item.bound)
		return 0, err
	})
	if err != nil {
		return Metrics{}, err
	}
	return summarize(engCfg.Name, n, samples, elapsed), nil
}

// closedLoop keeps n queries outstanding until the work list drains
// (§6.1.3: "the client initially submits the first n queries of the
// workload in a batch, and then submits the next query in the workload
// whenever an outstanding query finishes").
func (e *Env) closedLoop(n int, work []workItem, run func(workItem) (time.Duration, error)) ([]sample, time.Duration, error) {
	if n < 1 {
		n = 1
	}
	next := make(chan workItem)
	results := make(chan sample, len(work))
	errCh := make(chan error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range next {
				if failed.Load() {
					continue // drain so the feeder never blocks
				}
				qStart := time.Now()
				sub, err := run(item)
				if err != nil {
					failed.Store(true)
					errCh <- err
					continue
				}
				results <- sample{template: item.template, latency: time.Since(qStart), submission: sub}
			}
		}()
	}
	for _, item := range work {
		next <- item
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, 0, err
	}
	var samples []sample
	for s := range results {
		samples = append(samples, s)
	}
	return samples, elapsed, nil
}
