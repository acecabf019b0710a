// Command cjoin-bench regenerates the paper's evaluation (§6): every
// figure and table, printed as aligned text tables (or CSV) with the same
// series the paper reports.
//
// Usage:
//
//	cjoin-bench -exp all
//	cjoin-bench -exp figure5 -rows 10000 -queries 96 -ns 1,8,32,128,256
//	cjoin-bench -exp table2 -csv
//	cjoin-bench -exp figure6 -ns 1,8,32,64 -json
//
// Absolute numbers differ from the paper (scaled data, simulated disk);
// the shapes — who wins, by what factor, where the curves bend — are the
// reproduction target. Each figure's runner in internal/harness names the
// paper section it reproduces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cjoin/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, figure4..figure8, table1..table3")
		sf      = flag.Int("sf", 1, "SSB scale factor")
		rows    = flag.Int("rows", 5000, "fact rows per scale-factor unit")
		sel     = flag.Float64("s", 0.01, "predicate selectivity")
		queries = flag.Int("queries", 48, "measured queries per data point")
		seed    = flag.Int64("seed", 1, "workload seed")
		maxConc = flag.Int("maxconc", 256, "CJOIN maxConc (bit-vector width)")
		nsFlag  = flag.String("ns", "", "comma-separated concurrency sweep (default 1,8,32,64,128,256)")
		selsArg = flag.String("sels", "", "comma-separated selectivity sweep for figure7/table2 (default 0.001,0.01,0.1)")
		sfsArg  = flag.String("sfs", "", "comma-separated scale factors for figure8/table3 (default 1,4,16)")
		n       = flag.Int("n", 32, "concurrency for figure7/figure8/table2/table3")
		threads = flag.Int("threads", 5, "max stage threads for figure4")
		csv     = flag.Bool("csv", false, "emit CSV instead of text tables")
		jsonOut = flag.Bool("json", false, "emit the selected figures as one JSON document on stdout")
	)
	flag.Parse()

	cfg := harness.Config{
		SF:            *sf,
		FactRowsPerSF: *rows,
		Selectivity:   *sel,
		Queries:       *queries,
		Seed:          *seed,
		MaxConcurrent: *maxConc,
	}
	ns, err := parseInts(*nsFlag)
	check(err)
	sels, err := parseFloats(*selsArg)
	check(err)
	sfs, err := parseInts(*sfsArg)
	check(err)

	type runner struct {
		id  string
		run func() (harness.Figure, error)
	}
	runners := []runner{
		{"figure4", func() (harness.Figure, error) { return harness.RunFigure4(cfg, *threads, *n) }},
		{"figure5", func() (harness.Figure, error) { return harness.RunFigure5(cfg, ns) }},
		{"figure6", func() (harness.Figure, error) { return harness.RunFigure6(cfg, ns) }},
		{"table1", func() (harness.Figure, error) { return harness.RunTable1(cfg, ns) }},
		{"figure7", func() (harness.Figure, error) { return harness.RunFigure7(cfg, sels, *n) }},
		{"table2", func() (harness.Figure, error) { return harness.RunTable2(cfg, sels, *n) }},
		{"figure8", func() (harness.Figure, error) { return harness.RunFigure8(cfg, sfs, *n) }},
		{"table3", func() (harness.Figure, error) { return harness.RunTable3(cfg, sfs, *n) }},
	}

	ran := 0
	var figures []harness.Figure
	for _, r := range runners {
		if *exp != "all" && *exp != r.id {
			continue
		}
		start := time.Now()
		fig, err := r.run()
		check(err)
		switch {
		case *jsonOut:
			figures = append(figures, fig)
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.id, time.Since(start).Round(time.Millisecond))
		case *csv:
			fmt.Printf("# %s\n%s\n", fig.Title, fig.CSV())
		default:
			fmt.Println(fig.Format())
			fmt.Printf("[%s completed in %v]\n\n", r.id, time.Since(start).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut {
		// The env header makes run conditions (core count above all)
		// machine-checkable in a saved JSON document.
		doc := struct {
			Env     map[string]string `json:"env"`
			Figures []harness.Figure  `json:"figures"`
		}{
			Env: map[string]string{
				"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
				"num_cpu":    strconv.Itoa(runtime.NumCPU()),
				"go_version": runtime.Version(),
			},
			Figures: figures,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(doc))
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cjoin-bench:", err)
		os.Exit(1)
	}
}
