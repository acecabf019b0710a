package core_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

func dataset(t testing.TB, rows int) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// startPipeline starts a one-shard group over ds: the executor every
// end-to-end test here drives.
func startPipeline(t testing.TB, ds *ssb.Dataset, cfg core.Config) *shard.Group {
	t.Helper()
	return startGroup(t, ds.Star, shard.Config{Shards: 1, Core: cfg})
}

func startGroup(t testing.TB, star *catalog.Star, cfg shard.Config) *shard.Group {
	t.Helper()
	g, err := shard.New(star, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	return g
}

func bindWorkload(t testing.TB, ds *ssb.Dataset, n int, s float64, seed int64) []*query.Bound {
	t.Helper()
	w := ssb.NewWorkload(ds, s, seed)
	var qs []*query.Bound
	for i := 0; i < n; i++ {
		_, text := w.Next()
		q, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

func TestSingleQueryMatchesReferenceAllTemplates(t *testing.T) {
	ds := dataset(t, 2500)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})
	rng := rand.New(rand.NewSource(7))
	for _, tpl := range ssb.Templates() {
		text := ds.Instantiate(tpl, 0.1, rng)
		q, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.Submit(q)
		if err != nil {
			t.Fatalf("%s: %v", tpl.ID, err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatalf("%s: %v", tpl.ID, res.Err)
		}
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("%s: CJOIN diverges from reference\nSQL: %s\ngot %d rows, want %d rows",
				tpl.ID, text, len(res.Rows), len(want))
		}
	}
}

func TestConcurrentQueriesMatchReference(t *testing.T) {
	ds := dataset(t, 2000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 32, Workers: 4})
	qs := bindWorkload(t, ds, 24, 0.08, 9)
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q *query.Bound) {
			defer wg.Done()
			h, err := p.Submit(q)
			if err != nil {
				t.Error(err)
				return
			}
			res := h.Wait()
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			want, err := ref.Execute(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !ref.ResultsEqual(res.Rows, want) {
				t.Errorf("concurrent query diverges: %s", q.SQL)
			}
		}(q)
	}
	wg.Wait()
}

func TestStaggeredAdmission(t *testing.T) {
	// Queries latch onto the scan at arbitrary points; every one must
	// still see each fact tuple exactly once (§3.3).
	ds := dataset(t, 3000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 16, Workers: 2})
	qs := bindWorkload(t, ds, 10, 0.1, 17)

	// Prime the pipeline so later submissions land mid-cycle.
	warm, err := p.Submit(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, q := range qs[1:] {
		time.Sleep(time.Duration(i) * 2 * time.Millisecond)
		wg.Add(1)
		go func(q *query.Bound) {
			defer wg.Done()
			h, err := p.Submit(q)
			if err != nil {
				t.Error(err)
				return
			}
			res := h.Wait()
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			want, _ := ref.Execute(q)
			if !ref.ResultsEqual(res.Rows, want) {
				t.Errorf("staggered query diverges: %s", q.SQL)
			}
		}(q)
	}
	if res := warm.Wait(); res.Err != nil {
		t.Error(res.Err)
	}
	wg.Wait()
}

func TestVerticalAndHybridLayouts(t *testing.T) {
	ds := dataset(t, 1500)
	for _, cfg := range []core.Config{
		{MaxConcurrent: 8, Layout: core.Vertical},
		{MaxConcurrent: 8, Layout: core.Hybrid, Stages: 2, Workers: 4},
	} {
		p := startPipeline(t, ds, cfg)
		for _, q := range bindWorkload(t, ds, 6, 0.1, 23) {
			h, err := p.Submit(q)
			if err != nil {
				t.Fatalf("%v: %v", cfg.Layout, err)
			}
			res := h.Wait()
			if res.Err != nil {
				t.Fatalf("%v: %v", cfg.Layout, res.Err)
			}
			want, _ := ref.Execute(q)
			if !ref.ResultsEqual(res.Rows, want) {
				t.Fatalf("%v layout diverges: %s", cfg.Layout, q.SQL)
			}
		}
		p.Stop()
	}
}

func TestSlotReuseBeyondMaxConc(t *testing.T) {
	ds := dataset(t, 800)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	qs := bindWorkload(t, ds, 12, 0.1, 31)
	for _, q := range qs {
		h, err := p.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, _ := ref.Execute(q)
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("slot-reused query diverges: %s", q.SQL)
		}
		p.Quiesce() // ensure Algorithm 2 cleanup completed before reuse
	}
}

func TestTooManyQueries(t *testing.T) {
	ds := dataset(t, 30000)
	// Full scans (selectivity 1: every dimension predicate selects every
	// key, so nothing prunes): a query zone-mapped down to a few pages can
	// finish and free its slot before the third Submit.
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 2})
	qs := bindWorkload(t, ds, 3, 1, 37)
	h1, err := p.Submit(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Submit(qs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(qs[2]); err != core.ErrTooManyQueries {
		t.Fatalf("expected ErrTooManyQueries, got %v", err)
	}
	if r := h1.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := h2.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestReorderFiltersDuringExecution(t *testing.T) {
	ds := dataset(t, 2500)
	// One pipeline, not a group: the test calls its ReorderFilters.
	p := core.NewTestPipeline(t, ds.Star, core.Config{MaxConcurrent: 16, Workers: 3, OptimizeInterval: time.Millisecond}, core.ShardConfig{})
	p.Start()
	qs := bindWorkload(t, ds, 12, 0.1, 41)
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q *query.Bound) {
			defer wg.Done()
			h, err := p.Admit(q)
			if err != nil {
				t.Error(err)
				return
			}
			p.ReorderFilters() // also hammer it explicitly
			res := h.Wait()
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			want, _ := ref.Execute(q)
			if !sameRows(res.Rows, want) {
				t.Errorf("reordering changed results: %s", q.SQL)
			}
		}(q)
	}
	wg.Wait()
}

// sameRows compares two result sets without regard to order: a
// pipeline's partial comes in group-key order, and ORDER BY is the
// group's to apply.
func sameRows(a, b []agg.Result) bool {
	byGroup := func(x, y agg.Result) int { return slices.Compare(x.Group, y.Group) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byGroup)
	slices.SortFunc(b, byGroup)
	return ref.ResultsEqual(a, b)
}

func TestFactPredicateSupported(t *testing.T) {
	// The paper's workload generator omits fact predicates, but the
	// operator supports them (§3.2.2): the Preprocessor initializes bτ
	// from c_i0.
	ds := dataset(t, 1500)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q, err := query.ParseBind(`SELECT SUM(lo_revenue), COUNT(*), d_year FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_quantity <= 25 AND lo_discount BETWEEN 1 AND 3
		GROUP BY d_year ORDER BY d_year`, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := ref.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.ResultsEqual(res.Rows, want) {
		t.Fatal("fact-predicate query diverges from reference")
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected non-empty result")
	}
}

func TestProgressReaches1(t *testing.T) {
	ds := dataset(t, 2000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q := bindWorkload(t, ds, 1, 0.2, 43)[0]
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := h.Progress(); got < 0.99 {
		t.Fatalf("progress after completion = %g", got)
	}
}

func TestStopFailsInflightQueries(t *testing.T) {
	ds := dataset(t, 50000)
	// A full scan (selectivity 1 prunes nothing), so the query cannot
	// complete ahead of Stop.
	p, err := shard.New(ds.Star, shard.Config{Shards: 1, Core: core.Config{MaxConcurrent: 4}})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	q := bindWorkload(t, ds, 1, 1, 47)[0]
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if res := h.Wait(); res.Err == nil {
		t.Fatal("in-flight query must fail on Stop")
	}
	if _, err := p.Submit(q); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := dataset(t, 1200)
	// Selectivity 1 prunes nothing: this test pins the stats plumbing
	// against a known full-table scan, so page pruning would invalidate
	// the arithmetic (pruned charges have their own tests in
	// zonemap_parity_test.go).
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q := bindWorkload(t, ds, 1, 1, 53)[0]
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	s := p.Stats()
	if s.TuplesScanned < 1200 {
		t.Fatalf("tuples scanned %d", s.TuplesScanned)
	}
	if len(s.Filters) != 4 {
		t.Fatalf("filters %d", len(s.Filters))
	}
	if s.PagesRead == 0 {
		t.Fatal("no pages read")
	}
}
