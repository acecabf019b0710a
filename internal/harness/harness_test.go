package harness

import (
	"strings"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/engine"
)

// tinyConfig keeps harness tests fast: a small dataset and a mild disk
// model that still charges seeks.
func tinyConfig() Config {
	return Config{
		SF:            1,
		FactRowsPerSF: 1500,
		Selectivity:   0.05,
		Queries:       8,
		Seed:          3,
		MaxConcurrent: 16,
		PoolPages:     16,
		Disk:          disk.Config{SeqBytesPerSec: 4 << 30, SeekPenalty: 50 * time.Microsecond},
	}
}

func TestRunCJoinProducesMetrics(t *testing.T) {
	env, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.RunCJoin(4, core.Config{MaxConcurrent: 16}, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 8 || m.Throughput <= 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Submission <= 0 {
		t.Fatal("submission time not measured")
	}
	if m.AllLatency().Count != 8 {
		t.Fatalf("latency samples %d", m.AllLatency().Count)
	}
}

func TestRunEngineProducesMetrics(t *testing.T) {
	env, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []engine.Config{engine.SystemXConfig(), engine.PostgresConfig()} {
		m, err := env.RunEngine(cfg, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		if m.Queries != 8 || m.Throughput <= 0 {
			t.Fatalf("%s metrics %+v", cfg.Name, m)
		}
	}
}

func TestSingleTemplateWorkload(t *testing.T) {
	env, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.RunCJoin(2, core.Config{MaxConcurrent: 16}, "Q4.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Latency) != 1 {
		t.Fatalf("expected one template, got %v", m.Latency)
	}
	if _, ok := m.Latency["Q4.2"]; !ok {
		t.Fatal("Q4.2 missing")
	}
}

func TestFigureFormatAndCSV(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "Test figure", XLabel: "x", YLabel: "y",
		X: []float64{1, 2},
		Series: []Series{
			{Name: "a", Y: []float64{10, 20}},
			{Name: "b", Y: []float64{1.5, 2.5}},
		},
	}
	txt := fig.Format()
	for _, want := range []string{"Test figure", "a", "b", "10", "2.5"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Format missing %q:\n%s", want, txt)
		}
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n1,10,1.5\n") {
		t.Fatalf("CSV:\n%s", csv)
	}
	if _, ok := fig.SeriesByName("b"); !ok {
		t.Fatal("SeriesByName")
	}
	if _, ok := fig.SeriesByName("zz"); ok {
		t.Fatal("unknown series must be false")
	}
}

func TestRunTable1Smoke(t *testing.T) {
	cfg := tinyConfig()
	fig, err := RunTable1(cfg, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 2 || len(fig.Series) != 2 {
		t.Fatalf("table shape: %v", fig)
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y < 0 {
				t.Fatal("negative time")
			}
		}
	}
}

func TestRunFigure4Smoke(t *testing.T) {
	cfg := tinyConfig()
	fig, err := RunFigure4(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := fig.SeriesByName("Horizontal")
	if !ok || len(h.Y) != 4 {
		t.Fatalf("horizontal series %v", h)
	}
	v, _ := fig.SeriesByName("Vertical")
	// Vertical is only runnable at >= 4 threads (4 SSB dimensions).
	for i := 0; i < 3; i++ {
		if v.Y[i] != 0 {
			t.Fatal("vertical must be absent below 4 threads")
		}
	}
	if v.Y[3] <= 0 {
		t.Fatal("vertical at 4 threads must run")
	}
}

func TestAllLatencyPooling(t *testing.T) {
	m := Metrics{Latency: map[string]LatencyStats{
		"a": {Count: 2, Mean: 10 * time.Millisecond, StdDev: 0},
		"b": {Count: 2, Mean: 20 * time.Millisecond, StdDev: 0},
	}}
	all := m.AllLatency()
	if all.Count != 4 {
		t.Fatalf("count %d", all.Count)
	}
	if all.Mean != 15*time.Millisecond {
		t.Fatalf("mean %v", all.Mean)
	}
	if all.StdDev != 5*time.Millisecond {
		t.Fatalf("pooled stddev %v", all.StdDev)
	}
}

// TestRunCJoinAtMaxConcurrent runs the closed loop with every slot in
// use: a worker's next submit races the manager's release of the slot
// its delivered query held, and must wait for it instead of failing.
func TestRunCJoinAtMaxConcurrent(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxConcurrent = 4
	cfg.Queries = 32
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.RunCJoin(4, core.Config{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 32 {
		t.Fatalf("measured %d of 32 queries", m.Queries)
	}
	if _, err := env.RunCJoin(5, core.Config{}, ""); err == nil {
		t.Fatal("concurrency above MaxConcurrent must error")
	}
}
