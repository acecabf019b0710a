package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
)

// OverloadMetrics summarizes one offered-load cell of the serving-tier
// experiment.
type OverloadMetrics struct {
	Offered   int           // concurrently offered queries
	Capacity  int           // pipeline maxConc
	Rejected  int64         // should stay 0: overload queues, never errors
	MeanWait  time.Duration // mean admission-queue wait
	MaxWait   time.Duration
	MaxDepth  int           // queue high-water mark
	MeanResp  time.Duration // mean submit-to-result response time
	Elapsed   time.Duration
	QPerHour  float64
	Completed int64
}

// RunOverload measures the admission tier beyond pipeline capacity: for
// each offered load n (possibly >> maxConc) it submits n workload
// queries at once through an admission.Queue and records queue wait and
// response time. The paper stops its concurrency sweep at maxConc
// (§6.2.2) because CJOIN itself rejects query 257; this experiment
// documents the serving tier's extension of that curve — response time
// keeps growing linearly with offered load while rejections stay zero.
func RunOverload(cfg Config, ns []int) ([]OverloadMetrics, error) {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	if len(ns) == 0 {
		mc := cfg.MaxConcurrent
		ns = []int{mc / 2, mc, 2 * mc, 4 * mc}
	}
	var out []OverloadMetrics
	for _, n := range ns {
		m, err := env.RunOverloadCell(n)
		if err != nil {
			return out, fmt.Errorf("overload n=%d: %w", n, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// RunOverloadCell runs one offered-load point on a fresh execution tier
// of Config.Shards shards.
func (e *Env) RunOverloadCell(n int) (OverloadMetrics, error) {
	exec, err := e.NewExecutor(core.Config{})
	if err != nil {
		return OverloadMetrics{}, err
	}
	defer exec.Stop()
	q := admission.NewQueue(exec, admission.Config{MaxQueue: n + 1})

	work, err := e.buildWork(n, "")
	if err != nil {
		return OverloadMetrics{}, err
	}

	start := time.Now()
	var mu sync.Mutex
	var totalResp time.Duration
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		t, err := q.Submit(work[i].bound)
		if err != nil {
			return OverloadMetrics{}, err
		}
		wg.Add(1)
		go func(t *admission.Ticket, submitted time.Time) {
			defer wg.Done()
			res := t.Wait()
			mu.Lock()
			defer mu.Unlock()
			if res.Err == nil {
				totalResp += time.Since(submitted)
			}
		}(t, time.Now())
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := q.Stats()
	// All tickets are terminal; Close returns immediately and stops the
	// dispatcher goroutine so repeated cells do not leak.
	if err := q.Close(context.Background()); err != nil {
		return OverloadMetrics{}, err
	}
	m := OverloadMetrics{
		Offered:   n,
		Capacity:  e.Cfg.MaxConcurrent,
		Rejected:  st.Rejected,
		MeanWait:  st.MeanWait,
		MaxWait:   st.MaxWait,
		MaxDepth:  st.MaxDepth,
		Elapsed:   elapsed,
		Completed: st.Completed,
	}
	if st.Completed > 0 {
		m.MeanResp = totalResp / time.Duration(st.Completed)
		m.QPerHour = float64(st.Completed) / elapsed.Hours()
	}
	if st.Failed > 0 {
		return m, fmt.Errorf("%d queries failed", st.Failed)
	}
	return m, nil
}

// RunOverloadFigure renders the overload sweep as a Figure so
// cmd/cjoin-bench can emit it through the same text/CSV/JSON output path
// as the paper's figures — closing the ROADMAP item from the serving-
// tier PR.
func RunOverloadFigure(cfg Config, ns []int) (Figure, error) {
	fig := Figure{
		ID:     "overload",
		Title:  "Overload: admission tier beyond pipeline capacity (rejections must stay 0)",
		XLabel: "offered queries",
		YLabel: "ms (waits/response), count (depth/rejected), q/hour",
	}
	ms, err := RunOverload(cfg, ns)
	if err != nil {
		return fig, err
	}
	qph := Series{Name: "q/hour"}
	meanWait := Series{Name: "mean-wait-ms"}
	maxWait := Series{Name: "max-wait-ms"}
	meanResp := Series{Name: "mean-resp-ms"}
	depth := Series{Name: "max-depth"}
	rejected := Series{Name: "rejected"}
	for _, m := range ms {
		fig.X = append(fig.X, float64(m.Offered))
		qph.Y = append(qph.Y, m.QPerHour)
		meanWait.Y = append(meanWait.Y, float64(m.MeanWait)/float64(time.Millisecond))
		maxWait.Y = append(maxWait.Y, float64(m.MaxWait)/float64(time.Millisecond))
		meanResp.Y = append(meanResp.Y, float64(m.MeanResp)/float64(time.Millisecond))
		depth.Y = append(depth.Y, float64(m.MaxDepth))
		rejected.Y = append(rejected.Y, float64(m.Rejected))
	}
	fig.Series = []Series{qph, meanWait, maxWait, meanResp, depth, rejected}
	return fig, nil
}
