package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// maxResidualShare is the most of a query's latency the budget's named
// spans may leave unexplained, at the median.
const maxResidualShare = 0.10

// failedShareBound is how much failed_share may rise, absolutely, before
// -compare calls it a regression. (BENCHMARK.json cannot carry it: its
// bounds are shares of the parent's value, and the parent's is 0.)
const failedShareBound = 0.001

// commitMetric carries -compare's bound on commit_p50_ms, which only
// htap_mixed measures; BENCHMARK.json takes metrics every workload has.
var commitMetric = specMetric{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15}

// benchmarkSpec is the part of BENCHMARK.json the bench itself reads:
// which metrics the driver expects, and their regression bounds.
type benchmarkSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// envBlock is the mandatory description of where and how a run was made;
// -compare refuses two files whose blocks differ in anything but the
// commit.
type envBlock struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	GitCommit   string   `json:"git_commit"`
	CjoindFlags []string `json:"cjoind_flags"`
	Seed        int64    `json:"seed"`
	Rows        int      `json:"rows"`
	Shards      int      `json:"shards"`
	WarmS       float64  `json:"warm_s"`
	WindowS     float64  `json:"window_s"`
	TracedS     float64  `json:"traced_s"`
}

func newEnv(root string, o options) envBlock {
	commit := "unknown" // an exported checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envBlock{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: commit,
		CjoindFlags: daemonFlags(o.rows, o.shards), Seed: o.seed, Rows: o.rows, Shards: o.shards,
		WarmS: o.warm.Seconds(), WindowS: o.window.Seconds(), TracedS: o.traced.Seconds(),
	}
}

// benchFile is the one BENCH schema: an env block and one result per
// workload.
type benchFile struct {
	Schema string       `json:"schema"`
	Env    envBlock     `json:"env"`
	Runs   []*runResult `json:"runs"`
}

const schemaName = "cjoin-bench/1"

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %s\n", title)
	for _, name := range names {
		v := m[name]
		fmt.Printf("    %-30s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
}

func printEnv(w io.Writer, e envBlock) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d rows=%d shards=%d warm=%gs window=%gs traced=%gs\n     cjoind %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.Seed, e.Rows, e.Shards, e.WarmS, e.WindowS, e.TracedS,
		strings.Join(e.CjoindFlags, " "))
}

// runWorkload is one workload's live run and, if asked, its traced run.
func runWorkload(ctx context.Context, root, bin string, w workload, o options, traced bool) (*runResult, error) {
	r, err := runLive(ctx, bin, w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		times, err := runTraced(ctx, root, w, o, r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for name, v := range times {
			r.PerLayer[name] = v
		}
	}
	return r, nil
}

// runSuite is the full benchmark: every workload, live then traced,
// every metric printed, results written to bench/out/.
func runSuite(ctx context.Context, seed int64, rows, shards int, smoke bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	o := options{rows: rows, shards: shards, seed: seed, setups: 5,
		warm: 5 * time.Second, window: 30 * time.Second, traced: 10 * time.Second}
	if smoke {
		o.rows, o.setups = 20000, 1
		o.warm, o.window, o.traced = 300*time.Millisecond, 1500*time.Millisecond, time.Second
	}
	bin, err := buildCjoind(root)
	if err != nil {
		return err
	}
	file := benchFile{Schema: schemaName, Env: newEnv(root, o)}
	printEnv(os.Stdout, file.Env)

	var problems []string
	p50 := make(map[string]float64)
	for _, w := range workloads {
		r, err := runWorkload(ctx, root, bin, w, o, true)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, r)
		p50[w.name] = r.EndToEnd["query_p50_ms"].Value

		fmt.Printf("\n%s — %s\n", w.name, w.why)
		fmt.Printf("  attempted=%d failed=%d answers checked=%d (non-empty %d) correct=%v\n",
			r.Attempted, r.Failed, r.Checked, r.NonEmpty, r.Correct)
		printMetrics("end to end (live cjoind, tracing off)", r.EndToEnd)
		printMetrics("per layer (counts: live window; times: traced run)", r.PerLayer)
		for _, msg := range r.Invalid {
			fmt.Println("  INVALID RUN:", msg)
		}
		for _, msg := range r.Failures {
			problems = append(problems, w.name+": "+msg)
		}
		// A smoke pass is too short for its timings to mean anything: it
		// reports them, and fails only on wrong answers.
		if smoke {
			continue
		}
		for _, msg := range r.Invalid {
			problems = append(problems, w.name+": INVALID RUN: "+msg)
		}
		if res := r.PerLayer["budget.residual_share"].Value; res > maxResidualShare {
			problems = append(problems, fmt.Sprintf("%s: budget.residual_share %.3f > %.2f: the named spans do not explain the latency", w.name, res, maxResidualShare))
		}
	}
	if base := p50["shared_scan"]; base > 0 {
		fmt.Printf("\nhtap.read_cost_share %.4f share (htap_mixed query_p50_ms ÷ shared_scan query_p50_ms − 1)\n", p50["htap_mixed"]/base-1)
	}

	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("bench-seed%d.json", seed))
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and bench/out/trace-<workload>.json\n", path)
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n  "))
	}
	return nil
}

// driverOptions are the settings of a run made for the driver: a
// measured window of the given length behind a short warm-up, and
// set-up timed five times so that setup_s is a median.
func driverOptions(seed int64, seconds, rows, shards int) options {
	return options{rows: rows, shards: shards, seed: seed, setups: 5,
		warm: 2 * time.Second, window: time.Duration(seconds) * time.Second}
}

// runDriver is one run as the benchmark contract defines it: one
// workload, and as the last line of standard output one JSON object with
// the metrics BENCHMARK.json names — end-to-end with tracing off, or
// per-layer, whose counts come from a live window of half the time and
// whose times come from a traced window of the other half.
func runDriver(ctx context.Context, name string, seed int64, seconds int, traced bool, rows, shards int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	bin, err := buildCjoind(root)
	if err != nil {
		return err
	}
	o := driverOptions(seed, seconds, rows, shards)
	if traced {
		o.setups = 1
		o.window = time.Duration(seconds) * time.Second / 2
		o.traced = o.window
	}
	printEnv(os.Stderr, newEnv(root, o))
	r, err := runWorkload(ctx, root, bin, w, o, traced)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	want, have := spec.EndToEnd, r.EndToEnd
	if traced {
		want, have = spec.PerLayer, r.PerLayer
	}
	for _, sm := range want {
		v, ok := have[sm.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %s, which the bench does not measure", sm.Name)
		}
		out.Metrics[sm.Name] = value{v.Value, v.Unit}
	}
	for _, msg := range r.Invalid {
		fmt.Fprintln(os.Stderr, "bench: INVALID RUN:", msg)
	}
	for _, msg := range r.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned wrong rows", name, r.Failed, r.Attempted)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(sm specMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if sm.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaSet is one pass of the A/A procedure: every workload n times.
type aaSet map[string]map[string][]float64 // workload → metric → values

// runAA repeats the driver's own acceptance procedure on one build: two
// sets, each running every workload n times with seeds seed..seed+n-1
// (the second set in reverse workload order). It prints, per workload
// and end-to-end metric, the median, the quartiles and the spread as a
// share of the bound, and fails if a spread (other than setup_s's)
// exceeds its bound or the second set's median is worse than the
// first's by more than the bound.
func runAA(ctx context.Context, n int, seed int64) error {
	if n < 2 {
		return errors.New("-aa needs at least 2 runs to have quartiles")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	bin, err := buildCjoind(root)
	if err != nil {
		return err
	}
	o := driverOptions(seed, spec.RunSeconds, 200000, 2)
	printEnv(os.Stdout, newEnv(root, o))

	sets := []aaSet{{}, {}}
	for si, set := range sets {
		order := slices.Clone(workloads)
		if si == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			set[w.name] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				o.seed = seed + int64(i)
				r, err := runWorkload(ctx, root, bin, w, o, false)
				if err != nil {
					return err
				}
				if !r.Correct || len(r.Invalid) > 0 {
					return fmt.Errorf("%s seed %d: failures %v, invalid %v", w.name, o.seed, r.Failures, r.Invalid)
				}
				for _, sm := range spec.EndToEnd {
					set[w.name][sm.Name] = append(set[w.name][sm.Name], r.EndToEnd[sm.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", si+1, w.name, o.seed)
			}
		}
	}

	var problems []string
	fmt.Printf("\n%-13s %-17s %3s %11s %11s %11s %7s %6s %7s %8s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "s/b", "drift")
	for _, w := range workloads {
		for _, sm := range spec.EndToEnd {
			var med [2]float64
			for si, set := range sets {
				vals := set[w.name][sm.Name]
				q1, q2, q3 := quartiles(vals)
				med[si] = q2
				sp := spread(vals)
				drift := ""
				if si == 1 {
					d := worseBy(sm, med[0], med[1])
					drift = fmt.Sprintf("%+.3f", d)
					if d > sm.Bound {
						problems = append(problems, fmt.Sprintf("%s %s: second set's median is worse by %.3f > bound %.2f", w.name, sm.Name, d, sm.Bound))
					}
				}
				fmt.Printf("%-13s %-17s %3d %11.4f %11.4f %11.4f %7.3f %6.2f %7.2f %8s\n",
					w.name, sm.Name, si+1, q1, q2, q3, sp, sm.Bound, sp/sm.Bound, drift)
				if sp > sm.Bound && sm.Name != "setup_s" {
					problems = append(problems, fmt.Sprintf("%s %s: spread %.3f > bound %.2f in set %d", w.name, sm.Name, sp, sm.Bound, si+1))
				}
			}
		}
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(struct {
		Env  envBlock `json:"env"`
		Sets []aaSet  `json:"sets"`
	}{newEnv(root, o), sets}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "aa.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if len(problems) > 0 {
		return errors.New("A/A runs disagree:\n  " + strings.Join(problems, "\n  "))
	}
	return nil
}

// compareFiles diffs two suite outputs of the one BENCH schema under
// the bounds in BENCHMARK.json, refusing files whose environments
// differ in anything but the commit.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare old.json new.json")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	var files [2]benchFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if files[i].Schema != schemaName {
			return fmt.Errorf("%s: schema %q, want %q (BENCH_1–8.json are legacy in-process figures and cannot be compared)", path, files[i].Schema, schemaName)
		}
	}
	oldEnv, newEnv := files[0].Env, files[1].Env
	oldEnv.GitCommit, newEnv.GitCommit = "", ""
	if !reflect.DeepEqual(oldEnv, newEnv) {
		return fmt.Errorf("environments differ, refusing to compare:\n  old %+v\n  new %+v", oldEnv, newEnv)
	}
	newRuns := make(map[string]*runResult)
	for _, r := range files[1].Runs {
		newRuns[r.Workload] = r
	}
	var regressions []string
	fmt.Printf("%-13s %-17s %12s %12s %8s %6s\n", "workload", "metric", "old", "new", "worse", "bound")
	for _, a := range files[0].Runs {
		b, ok := newRuns[a.Workload]
		if !ok {
			return fmt.Errorf("%s: workload %s is missing", args[1], a.Workload)
		}
		gated := spec.EndToEnd
		if _, ok := a.EndToEnd[commitMetric.Name]; ok {
			gated = append(slices.Clone(gated), commitMetric)
		}
		for _, sm := range gated {
			va, vb := a.EndToEnd[sm.Name].Value, b.EndToEnd[sm.Name].Value
			d := worseBy(sm, va, vb)
			fmt.Printf("%-13s %-17s %12.4f %12.4f %+8.3f %6.2f\n", a.Workload, sm.Name, va, vb, d, sm.Bound)
			if d > sm.Bound {
				regressions = append(regressions, fmt.Sprintf("%s %s: %.4f → %.4f is worse by %.3f > bound %.2f", a.Workload, sm.Name, va, vb, d, sm.Bound))
			}
		}
		fa, fb := a.EndToEnd["failed_share"].Value, b.EndToEnd["failed_share"].Value
		fmt.Printf("%-13s %-17s %12.4f %12.4f %+8.4f %6.3f (absolute)\n", a.Workload, "failed_share", fa, fb, fb-fa, failedShareBound)
		if fb-fa > failedShareBound {
			regressions = append(regressions, fmt.Sprintf("%s failed_share: %.4f → %.4f", a.Workload, fa, fb))
		}
	}
	if len(regressions) > 0 {
		return errors.New("regressions:\n  " + strings.Join(regressions, "\n  "))
	}
	return nil
}
