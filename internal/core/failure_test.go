package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/disk"
	"cjoin/internal/fault"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// startChaos starts a one-shard group with fault injection armed by
// spec (internal/fault grammar).
func startChaos(t *testing.T, ds *ssb.Dataset, cfg core.Config, spec string) *shard.Group {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return startGroup(t, ds.Star, shard.Config{Shards: 1, Core: cfg, Fault: s})
}

func slowDataset(t *testing.T, rows int) *ssb.Dataset {
	t.Helper()
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: 101,
		Disk: disk.Config{SeqBytesPerSec: 8 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// expectFailed waits for the typed failure on each handle and checks the
// executor's terminal surface once its one shard has failed: Done
// closing, Health failed, new submissions rejected with the same typed
// error, and — the accounting invariant — zero slots left admitted on
// the plane.
func expectFailed(t *testing.T, g *shard.Group, ds *ssb.Dataset, hs []core.Handle) *core.PipelineFailedError {
	t.Helper()
	var ferr *core.PipelineFailedError
	for _, h := range hs {
		res := h.Wait()
		if !errors.As(res.Err, &ferr) {
			t.Fatalf("in-flight query got %v, want *PipelineFailedError", res.Err)
		}
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("Done did not close for a failed query")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Health().State != "failed" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h := g.Health(); h.State != "failed" || h.Shards[0].State != core.ShardFailed {
		t.Fatalf("health after failure: %+v", h)
	}
	if _, err := g.Submit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder")); !errors.As(err, &ferr) {
		t.Fatalf("submit on failed pipeline: %v, want *PipelineFailedError", err)
	}
	waitSlotsFree(t, g.Plane())
	return ferr
}

func waitSlotsFree(t *testing.T, pl *dimplane.Plane) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pl.InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pl.InUse(); got != 0 {
		t.Fatalf("%d plane slots leaked through pipeline failure", got)
	}
}

func bindOne(t *testing.T, ds *ssb.Dataset, sql string) *query.Bound {
	t.Helper()
	q, err := query.ParseBind(sql, ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	q.Snapshot = ds.Txn.Begin()
	return q
}

// TestPanicContainedPerGoroutine injects a panic into each pipeline
// goroutine in turn: the process must survive, resident queries must
// receive the typed failure, and the plane must drop to zero slots.
func TestPanicContainedPerGoroutine(t *testing.T) {
	for _, site := range []string{fault.SitePreprocessor, fault.SiteDistributor} {
		t.Run(site, func(t *testing.T) {
			ds := slowDataset(t, 2000)
			p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=1;panic="+site+"@4")
			h, err := p.Submit(bindOne(t, ds, "SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey"))
			if err != nil {
				t.Fatal(err)
			}
			ferr := expectFailed(t, p, ds, []core.Handle{h})
			var pv *fault.Panic
			if !errors.As(ferr, &pv) || pv.Site != site {
				t.Fatalf("failure cause %v does not carry the injected *fault.Panic for %s", ferr, site)
			}
		})
	}
}

// TestPanicInManagerGoroutine arms the manager site: the panic fires
// during the first query's Algorithm 2 cleanup, after its result was
// delivered — the completed query keeps its result, later submissions
// get the typed failure.
func TestPanicInManagerGoroutine(t *testing.T) {
	ds := dataset(t, 1000)
	p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=1;panic=mgr@1")
	h, err := p.Submit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatalf("query completed before the cleanup panic, result must stand: %v", res.Err)
	}
	ferr := expectFailed(t, p, ds, nil)
	if ferr.Goroutine != "manager" {
		t.Fatalf("failure origin %q, want manager", ferr.Goroutine)
	}
}

// TestTransientScanErrorsRetried: a lossy source heals under the
// page-boundary retry loop — the query completes with the exact
// reference answer and the retry counter records the absorbed faults.
func TestTransientScanErrorsRetried(t *testing.T) {
	ds := dataset(t, 2000)
	p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=7;scan-err=0.1")
	q := bindOne(t, ds, "SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year")
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Err != nil {
		t.Fatalf("query failed through transient errors: %v", res.Err)
	}
	want, err := ref.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.ResultsEqual(res.Rows, want) {
		t.Fatal("results diverged from reference under transient scan faults")
	}
	if got := p.Stats().ScanRetries; got == 0 {
		t.Fatal("no scan retries recorded despite scan-err=0.1")
	}
	if h := p.Health(); h.State != "ok" {
		t.Fatalf("pipeline failed: %+v", h)
	}
}

// TestScanRetriesExhausted: a source that always errors exhausts the
// capped backoff and escalates to the terminal Failed state, carrying
// the transient cause.
func TestScanRetriesExhausted(t *testing.T) {
	ds := dataset(t, 1000)
	p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=1;scan-err=1")
	h, err := p.Submit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	ferr := expectFailed(t, p, ds, []core.Handle{h})
	var fe *fault.Error
	if !errors.As(ferr, &fe) || !fe.Transient() {
		t.Fatalf("failure cause %v does not carry the transient *fault.Error", ferr)
	}
	if ferr.Goroutine != "preprocessor" {
		t.Fatalf("failure origin %q, want preprocessor", ferr.Goroutine)
	}
}

// TestScanHardFailureEscalatesImmediately: a hard page failure skips the
// retry loop entirely.
func TestScanHardFailureEscalatesImmediately(t *testing.T) {
	ds := dataset(t, 1000)
	p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=1;scan-fail=0")
	h, err := p.Submit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	ferr := expectFailed(t, p, ds, []core.Handle{h})
	var fe *fault.Error
	if !errors.As(ferr, &fe) || fe.Transient() {
		t.Fatalf("failure cause %v, want hard *fault.Error", ferr)
	}
	if st := p.Stats(); st.ScanRetries != 0 {
		t.Fatalf("%d retries burned on a hard failure", st.ScanRetries)
	}
}

// TestFailNow is the supervisor's lever: an externally declared failure
// (e.g. stall detection) tears the pipeline down with the given cause —
// the Failed channel closes, the resident query and later activations
// get that cause, and the plane gets its slot back.
func TestFailNow(t *testing.T) {
	ds := slowDataset(t, 2000)
	pl := dimplane.New(ds.Star, dimplane.Config{MaxConcurrent: 4})
	p := core.NewTestPipeline(t, ds.Star, core.Config{MaxConcurrent: 4, Workers: 2}, core.ShardConfig{Plane: pl})
	p.Start()
	h, err := p.Admit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("declared dead by supervisor")
	p.FailNow(cause)
	p.FailNow(errors.New("second declaration must lose")) // idempotent
	select {
	case <-p.Failed():
	case <-time.After(10 * time.Second):
		t.Fatal("Failed channel did not close")
	}
	ferr := p.FailureCause()
	if ferr == nil || !errors.Is(ferr, cause) || ferr.Goroutine != "supervisor" {
		t.Fatalf("failure = %v, want the first declared cause from the supervisor", ferr)
	}
	if res := h.Wait(); !errors.Is(res.Err, ferr) {
		t.Fatalf("resident query got %v, want %v", res.Err, ferr)
	}
	if _, err := p.Admit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder")); !errors.Is(err, ferr) {
		t.Fatalf("activation on a failed pipeline: %v, want %v", err, ferr)
	}
	waitSlotsFree(t, pl)
}

// TestAdmitFaultRejectsCleanly: an injected admission error fails only
// that submission — the pipeline stays healthy and the slot rolls back.
func TestAdmitFaultRejectsCleanly(t *testing.T) {
	ds := dataset(t, 1000)
	p := startChaos(t, ds, core.Config{MaxConcurrent: 4, Workers: 2}, "seed=1;admit-err=1")
	_, err := p.Submit(bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder"))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Op != "admit" {
		t.Fatalf("submit = %v, want injected admit *fault.Error", err)
	}
	if h := p.Health(); h.State != "ok" || p.Plane().InUse() != 0 {
		t.Fatalf("admission fault damaged the pipeline: health=%+v inUse=%d", h, p.Plane().InUse())
	}
}

// countingReporter counts the calls a pipeline run makes into its
// logical query.
type countingReporter struct{ reports, recycles atomic.Int32 }

func (r *countingReporter) Report(int, []agg.Result, error) { r.reports.Add(1) }
func (r *countingReporter) Recycled()                       { r.recycles.Add(1) }

// TestActivateErrorNeverReports pins the error half of Activate's
// binary contract on each terminal path it checks before it registers a
// run: the activation errors, the run never reports or recycles, and the
// pipeline leaves the slot's plane hold alone, so its caller retires it.
func TestActivateErrorNeverReports(t *testing.T) {
	ds := dataset(t, 500)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cause := errors.New("declared dead")
	cases := []struct {
		name  string
		ctx   context.Context
		setup func(p *core.Pipeline)
		want  func(err error) bool
	}{
		{"stopped", context.Background(), func(p *core.Pipeline) { p.Stop() },
			func(err error) bool { return errors.Is(err, core.ErrPipelineStopped) }},
		{"failed", context.Background(), func(p *core.Pipeline) { p.FailNow(cause) },
			func(err error) bool { return errors.Is(err, cause) }},
		{"canceled", canceled, func(*core.Pipeline) {},
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := dimplane.New(ds.Star, dimplane.Config{MaxConcurrent: 4})
			p := core.NewTestPipeline(t, ds.Star, core.Config{MaxConcurrent: 4, Workers: 2}, core.ShardConfig{Plane: pl})
			p.Start()
			tc.setup(p)
			q := bindOne(t, ds, "SELECT COUNT(*) AS n FROM lineorder")
			slots, err := pl.AdmitBatch(context.Background(), []*query.Bound{q})
			if err != nil {
				t.Fatal(err)
			}
			var rep countingReporter
			if _, err := p.Activate(tc.ctx, q, slots[0], nil, &rep); !tc.want(err) {
				t.Fatalf("Activate = %v", err)
			}
			p.Stop() // a later sweep must not find the rejected run either
			if n, m := rep.reports.Load(), rep.recycles.Load(); n != 0 || m != 0 {
				t.Fatalf("rejected run reported %d times and recycled %d times", n, m)
			}
			if got := pl.InUse(); got != 1 {
				t.Fatalf("plane holds %d slots after a rejected activation, want the caller's 1", got)
			}
			pl.Retire(slots[0])
			if got := pl.InUse(); got != 0 {
				t.Fatalf("%d slots held after the caller's retire", got)
			}
		})
	}
}
