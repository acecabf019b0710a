package harness

import (
	"fmt"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/shard"
)

// Ablation experiments isolate CJOIN design choices the paper calls out:
// the probe-skip test of §3.2.2, on-line filter reordering (§3.4), the
// bit-vector width implied by maxConc (§6.2.2 blames bitmap ops for the
// sub-linear tail), and compressed fact pages (§5). The §4 batch-size
// sweep is retired with its knob: a batch is one fact page, and the
// sweep's verdict is recorded in PERFORMANCE.md "PR 22".

// RunAblationProbeSkip compares throughput with and without the §3.2.2
// probe-skip optimization under a mixed workload where queries leave
// different dimensions unreferenced.
func RunAblationProbeSkip(cfg Config, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		n = 16
	}
	fig := Figure{
		ID:     "ablation-probeskip",
		Title:  "Ablation: probe-skip optimization (§3.2.2)",
		XLabel: "probe-skip enabled (1=yes)",
		YLabel: "throughput (queries/hour)",
		X:      []float64{0, 1},
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	s := Series{Name: "CJOIN"}
	for _, enabled := range []bool{false, true} {
		m, err := env.RunCJoin(n, core.Config{MaxConcurrent: cfg.MaxConcurrent, DisableProbeSkip: !enabled}, "")
		if err != nil {
			return fig, err
		}
		s.Y = append(s.Y, m.Throughput)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// RunAblationMaxConc sweeps maxConc — and with it the bit-vector width —
// at fixed actual concurrency, isolating the bitmap-operation cost the
// paper holds responsible for the sub-linear tail at n=256 (§6.2.2).
func RunAblationMaxConc(cfg Config, widths []int, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(widths) == 0 {
		widths = []int{64, 256, 1024, 4096}
	}
	if n <= 0 {
		n = 16
	}
	fig := Figure{
		ID:     "ablation-maxconc",
		Title:  "Ablation: bit-vector width (maxConc) at fixed concurrency",
		XLabel: "maxConc (bits per tuple vector)",
		YLabel: "throughput (queries/hour)",
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	s := Series{Name: "CJOIN"}
	for _, w := range widths {
		if w < n {
			return fig, fmt.Errorf("harness: width %d below concurrency %d", w, n)
		}
		fig.X = append(fig.X, float64(w))
		m, err := env.RunCJoin(n, core.Config{MaxConcurrent: w}, "")
		if err != nil {
			return fig, err
		}
		s.Y = append(s.Y, m.Throughput)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// RunAblationFilterOrder compares a pessimal static filter order against
// the on-line optimizer (§3.4) on a workload with one highly selective
// dimension. The workload joins all four dimensions but only the part
// dimension filters aggressively, so probing it first drops tuples early.
func RunAblationFilterOrder(cfg Config, n int) (Figure, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		n = 16
	}
	fig := Figure{
		ID:     "ablation-order",
		Title:  "Ablation: on-line filter reordering (§3.4)",
		XLabel: "reordering enabled (1=yes)",
		YLabel: "mean response time (seconds)",
		X:      []float64{0, 1},
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return fig, err
	}
	ds := env.Dataset

	// Selective on part (0.2%), wide on the rest.
	makeQuery := func(seed int64) (*query.Bound, error) {
		text := fmt.Sprintf(`SELECT SUM(lo_revenue), d_year FROM lineorder, customer, supplier, part, date
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			  AND p_partkey BETWEEN %d AND %d
			GROUP BY d_year`, seed%ds.NumParts+1, seed%ds.NumParts+1)
		return query.ParseBind(text, ds.Star)
	}

	s := Series{Name: "CJOIN"}
	for _, enabled := range []bool{false, true} {
		coreCfg := core.Config{MaxConcurrent: cfg.MaxConcurrent}
		if enabled {
			coreCfg.OptimizeInterval = 5 * time.Millisecond
		} // zero leaves the optimizer off: the admission order sticks
		p, err := shard.New(ds.Star, shard.Config{Shards: 1, Core: coreCfg})
		if err != nil {
			return fig, err
		}
		p.Start()
		var total time.Duration
		count := 0
		for round := 0; round < cfg.Queries/n+1; round++ {
			handles := make([]core.Handle, 0, n)
			for i := 0; i < n; i++ {
				q, err := makeQuery(int64(round*n + i))
				if err != nil {
					p.Stop()
					return fig, err
				}
				h, err := p.Submit(q)
				if err != nil {
					p.Stop()
					return fig, err
				}
				handles = append(handles, h)
			}
			roundStart := time.Now()
			for _, h := range handles {
				if res := h.Wait(); res.Err != nil {
					p.Stop()
					return fig, res.Err
				}
			}
			total += time.Since(roundStart)
			count += n
		}
		p.Stop()
		s.Y = append(s.Y, (total / time.Duration(count/n)).Seconds())
	}
	fig.Series = []Series{s}
	return fig, nil
}
