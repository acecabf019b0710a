package harness

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkFigure asserts fig has the wanted x axis and series names, and
// that every series holds one finite, non-negative value per x (strictly
// positive unless the series is a deviation, which may be zero).
func checkFigure(t *testing.T, fig Figure, wantX []float64, wantSeries []string) {
	t.Helper()
	if !reflect.DeepEqual(fig.X, wantX) {
		t.Fatalf("%s x axis %v, want %v", fig.ID, fig.X, wantX)
	}
	var names []string
	for _, s := range fig.Series {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, wantSeries) {
		t.Fatalf("%s series %v, want %v", fig.ID, names, wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(wantX) {
			t.Fatalf("%s series %q has %d values for %d x", fig.ID, s.Name, len(s.Y), len(wantX))
		}
		for i, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
				t.Fatalf("%s series %q[%d] = %v", fig.ID, s.Name, i, y)
			}
			if y == 0 && !strings.HasSuffix(s.Name, " stddev") {
				t.Fatalf("%s series %q[%d] is zero", fig.ID, s.Name, i)
			}
		}
	}
}

var tableSeries = []string{"Submission time (s)", "Response time (s)"}

func TestRunFigure5Smoke(t *testing.T) {
	fig, err := RunFigure5(tinyConfig(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []float64{1, 4}, allSystems)
}

func TestRunFigure6Smoke(t *testing.T) {
	fig, err := RunFigure6(tinyConfig(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []float64{1, 4}, []string{
		"CJOIN", "CJOIN stddev",
		"System X", "System X stddev",
		"PostgreSQL", "PostgreSQL stddev",
	})
}

func TestRunFigure7Smoke(t *testing.T) {
	sels := []float64{0.01, 0.1}
	fig, err := RunFigure7(tinyConfig(), sels, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, sels, allSystems)
}

func TestRunTable2Smoke(t *testing.T) {
	sels := []float64{0.01, 0.1}
	fig, err := RunTable2(tinyConfig(), sels, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, sels, tableSeries)
}

func TestRunFigure8Smoke(t *testing.T) {
	fig, err := RunFigure8(tinyConfig(), []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []float64{1, 2}, allSystems)
}

func TestRunTable3Smoke(t *testing.T) {
	fig, err := RunTable3(tinyConfig(), []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []float64{1, 2}, tableSeries)
}

// TestRunTable1SkipsAboveMaxConcurrent pins that Table 1 drops the
// concurrency levels CJOIN cannot register instead of failing the sweep.
func TestRunTable1SkipsAboveMaxConcurrent(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxConcurrent = 4
	fig, err := RunTable1(cfg, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []float64{2, 4}, tableSeries)
}

func TestDefaultNs(t *testing.T) {
	for _, c := range []struct {
		max  int
		want []int
	}{
		{0, nil},
		{8, []int{1, 8}},
		{100, []int{1, 8, 32, 64}},
		{256, []int{1, 8, 32, 64, 128, 256}},
	} {
		if got := defaultNs(c.max); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("defaultNs(%d) = %v, want %v", c.max, got, c.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SF != 1 || c.FactRowsPerSF != 5000 || c.Selectivity != 0.01 || c.Queries != 48 ||
		c.Seed != 1 || c.MaxConcurrent != 256 || c.PoolPages != 64 || c.Disk != DefaultDisk() {
		t.Fatalf("defaults %+v", c)
	}
	set := tinyConfig()
	if got := set.withDefaults(); got != set {
		t.Fatalf("withDefaults changed set fields: %+v -> %+v", set, got)
	}
}

// TestClosedLoopStopsOnError pins that one failed query fails the whole
// run, and that the work after it drains unrun instead of blocking the
// feeder. One worker makes the count of runs deterministic.
func TestClosedLoopStopsOnError(t *testing.T) {
	var e Env
	work := make([]workItem, 20)
	boom := errors.New("boom")
	ran := 0
	_, _, err := e.closedLoop(1, work, func(workItem) (time.Duration, error) {
		ran++
		if ran == 3 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("closedLoop err = %v, want boom", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d queries, want 3: work after a failure must be skipped", ran)
	}
}

func TestSummarizeGroupsByTemplate(t *testing.T) {
	ms := time.Millisecond
	m := summarize("CJOIN", 2, []sample{
		{template: "Q1.1", latency: 10 * ms, submission: 2 * ms},
		{template: "Q1.1", latency: 30 * ms, submission: 4 * ms},
		{template: "Q4.2", latency: 20 * ms, submission: 6 * ms},
	}, time.Second)
	if m.Queries != 3 || math.Abs(m.Throughput-3*3600) > 1e-6 || m.Submission != 4*ms {
		t.Fatalf("metrics %+v", m)
	}
	if got := m.Latency["Q1.1"]; got != (LatencyStats{Count: 2, Mean: 20 * ms, StdDev: 10 * ms}) {
		t.Fatalf("Q1.1 %+v", got)
	}
	if got := m.Latency["Q4.2"]; got != (LatencyStats{Count: 1, Mean: 20 * ms}) {
		t.Fatalf("Q4.2 %+v", got)
	}
}
