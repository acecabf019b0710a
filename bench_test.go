// Benchmarks regenerating every figure and table of the paper's
// evaluation (§6) at bench-friendly scale. Each benchmark executes the
// corresponding harness runner and reports the headline numbers as custom
// metrics; run with -v to see the full series, or use cmd/cjoin-bench for
// paper-scale sweeps.
//
//	go test -bench=. -benchmem
package cjoin_test

import (
	"testing"
	"time"

	"cjoin/internal/disk"
	"cjoin/internal/harness"
)

// benchConfig keeps each experiment within a few seconds per iteration
// while preserving the fact:pool ratio and disk asymmetry that produce
// the paper's shapes.
func benchConfig() harness.Config {
	return harness.Config{
		SF:            1,
		FactRowsPerSF: 3000,
		Selectivity:   0.01,
		Queries:       16,
		Seed:          1,
		MaxConcurrent: 64,
		PoolPages:     24,
		Disk:          disk.Config{SeqBytesPerSec: 100 << 20, SeekPenalty: time.Millisecond},
	}
}

var benchNs = []int{1, 4, 16}

func reportSeries(b *testing.B, fig harness.Figure, metric string) {
	b.Helper()
	b.Logf("\n%s", fig.Format())
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.ReportMetric(s.Y[len(s.Y)-1], sanitize(s.Name)+"_"+metric)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFigure4_PipelineConfig reproduces Figure 4: horizontal vs
// vertical stage layout as stage threads grow (§6.2.1). Expected shape:
// horizontal ≥ vertical once it has ≥ 2 threads.
func BenchmarkFigure4_PipelineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure4(benchConfig(), 5, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_at_5_threads")
		}
	}
}

// BenchmarkFigure5_ConcurrencyScaleup reproduces Figure 5: throughput vs
// n for CJOIN / System X / PostgreSQL (§6.2.2). Expected shape: CJOIN
// scales near-linearly; baselines flatten or decline past small n; CJOIN
// leads by 1–2 orders of magnitude at the top of the sweep.
func BenchmarkFigure5_ConcurrencyScaleup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure5(benchConfig(), benchNs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_at_n16")
		}
	}
}

// BenchmarkFigure6_Predictability reproduces Figure 6: Q4.2 response time
// vs n (§6.2.2). Expected shape: CJOIN grows by tens of percent; the
// baselines grow by an order of magnitude or more.
func BenchmarkFigure6_Predictability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure6(benchConfig(), benchNs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "seconds_at_n16")
		}
	}
}

// BenchmarkTable1_SubmissionVsConcurrency reproduces Table 1: CJOIN
// submission time vs n (§6.2.2). Expected shape: submission roughly flat
// in n and small relative to response time.
func BenchmarkTable1_SubmissionVsConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunTable1(benchConfig(), benchNs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "seconds_at_n16")
		}
	}
}

// BenchmarkFigure7_Selectivity reproduces Figure 7: throughput vs
// predicate selectivity s (§6.2.3). Expected shape: every system's
// throughput drops roughly linearly in s; CJOIN stays on top.
func BenchmarkFigure7_Selectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure7(benchConfig(), []float64{0.001, 0.01, 0.1}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_at_s10pct")
		}
	}
}

// BenchmarkTable2_SubmissionVsSelectivity reproduces Table 2: CJOIN
// submission time vs s (§6.2.3). Expected shape: submission grows with s
// (more dimension tuples to load) while fixed costs dominate at small s.
func BenchmarkTable2_SubmissionVsSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunTable2(benchConfig(), []float64{0.001, 0.01, 0.1}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "seconds_at_s10pct")
		}
	}
}

// BenchmarkFigure8_DataScale reproduces Figure 8: normalized throughput
// (qph × sf) vs scale factor (§6.2.4). Expected shape: CJOIN's normalized
// throughput holds or rises with sf (submission overhead amortizes);
// baselines' normalized throughput falls.
func BenchmarkFigure8_DataScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunFigure8(benchConfig(), []int{1, 2, 4}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "normqph_at_sf4")
		}
	}
}

// BenchmarkTable3_SubmissionVsScale reproduces Table 3: CJOIN submission
// time vs sf (§6.2.4). Expected shape: submission grows sub-linearly with
// sf (dimensions grow at most logarithmically), so its share of response
// time shrinks.
func BenchmarkTable3_SubmissionVsScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunTable3(benchConfig(), []int{1, 2, 4}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "seconds_at_sf4")
		}
	}
}

// --- Ablations of design choices the paper calls out ---

// BenchmarkAblationProbeSkip isolates the §3.2.2 probe-skip test.
func BenchmarkAblationProbeSkip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunAblationProbeSkip(benchConfig(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_enabled")
		}
	}
}

// BenchmarkAblationMaxConc isolates the bit-vector width cost the paper
// blames for the sub-linear tail at n=256 (§6.2.2).
func BenchmarkAblationMaxConc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunAblationMaxConc(benchConfig(), []int{64, 1024, 4096}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_at_4096bits")
		}
	}
}

// BenchmarkAblationFilterOrder isolates §3.4 on-line filter reordering.
func BenchmarkAblationFilterOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunAblationFilterOrder(benchConfig(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "seconds_enabled")
		}
	}
}

// BenchmarkAblationCompression isolates §5 compressed fact pages.
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.RunAblationCompression(benchConfig(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig, "qph_compressed")
		}
	}
}
