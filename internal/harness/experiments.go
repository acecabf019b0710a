package harness

import (
	"fmt"

	"cjoin/internal/core"
	"cjoin/internal/engine"
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
