package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/obs"
	"cjoin/internal/query"
	"cjoin/internal/server"
	"cjoin/internal/shard"
	"cjoin/internal/sql"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

// stack is the serving stack cmd/cjoind/main.go builds — ssb.Generate →
// shard.New → server.New — assembled in process behind a real loopback
// listener, so the bench can put span-recording decorators at the seams
// it is handed without changing the program. (cjoind runs a bare
// core.Pipeline at -shards 1; the stack always runs a shard.Group, which
// is a pass-through at one shard.)
type stack struct {
	ds    *ssb.Dataset
	group *shard.Group
	srv   *server.Server
	http  *http.Server
	base  string
	rec   *recorder // nil with decorators off
}

func startStack(rows, shards int, decorate bool) (*stack, error) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: rows, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	st := &stack{ds: ds}
	metrics := obs.NewRegistry()
	coreCfg := core.Config{MaxConcurrent: maxConc, OptimizeInterval: 100 * time.Millisecond}
	if decorate {
		st.rec = &recorder{submits: make(map[string]submitSpan)}
		coreCfg.FactSource = &tracedSource{HeapFile: ds.Star.Fact.Heap, rec: st.rec}
	}
	st.group, err = shard.New(ds.Star, shard.Config{Shards: shards, Core: coreCfg, Obs: metrics})
	if err != nil {
		return nil, err
	}
	st.group.Start()
	var exec core.Executor = st.group
	if decorate {
		exec = &tracedExec{Group: st.group, rec: st.rec}
	}
	// Every query's trace is fetched after the window, so neither the
	// finished-query registry nor the trace store may evict during a run.
	st.srv = server.New(ds.Star, ds.Txn, exec, server.Config{
		Admission:  admission.Config{BatchAdmit: admitBatch},
		Metrics:    metrics,
		MaxTracked: 1 << 20,
		MaxTraces:  1 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.group.Stop()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: st.srv.Handler()}
	go func() { _ = st.http.Serve(ln) }() // returns ErrServerClosed on stop
	return st, nil
}

func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Drain(ctx)     // a timeout only means queries were canceled
	_ = st.http.Shutdown(ctx) // likewise
	st.group.Stop()
}

// recorder collects what the decorators see.
type recorder struct {
	mu      sync.Mutex
	submits map[string]submitSpan // by query id

	pageReads atomic.Int64
	pageNanos atomic.Int64
}

// submitSpan is one query's pass through the executor seam.
type submitSpan struct {
	traceStart time.Time // the server-side trace's epoch, on the shared clock
	start, end time.Time // Executor.Submit* call
}

func (r *recorder) submitted(start, end time.Time, q *query.Bound) {
	if q.Trace == nil {
		return
	}
	r.mu.Lock()
	r.submits[q.Trace.ID()] = submitSpan{traceStart: q.Trace.StartedAt(), start: start, end: end}
	r.mu.Unlock()
}

// tracedExec times the executor seam server.New is handed. Embedding the
// group keeps every optional capability the server and the admission
// queue assert for (batch submit, health, per-shard stats, plane).
type tracedExec struct {
	*shard.Group
	rec *recorder
}

func (e *tracedExec) Submit(q *query.Bound) (core.Handle, error) {
	return e.SubmitCtx(context.Background(), q)
}

func (e *tracedExec) SubmitCtx(ctx context.Context, q *query.Bound) (core.Handle, error) {
	start := time.Now()
	h, err := e.Group.SubmitCtx(ctx, q)
	e.rec.submitted(start, time.Now(), q)
	return h, err
}

// SubmitBatch charges the whole batch's duration to each of its
// queries: each waited for all of it.
func (e *tracedExec) SubmitBatch(ctx context.Context, qs []*query.Bound) ([]core.Handle, []error, error) {
	start := time.Now()
	hs, errs, err := e.Group.SubmitBatch(ctx, qs)
	end := time.Now()
	for _, q := range qs {
		e.rec.submitted(start, end, q)
	}
	return hs, errs, err
}

// tracedSource times the page-read seam (core.Config.FactSource).
// Embedding the heap forwards geometry and the zone-map face
// (PageColBounds), so pruning decisions are unchanged.
type tracedSource struct {
	*storage.HeapFile
	rec *recorder
}

func (s *tracedSource) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	start := time.Now()
	n, err := s.HeapFile.ReadPage(page, dst, scratch)
	s.rec.pageNanos.Add(int64(time.Since(start)))
	s.rec.pageReads.Add(1)
	return n, err
}

// span is one timed interval of one query. Times are microseconds from
// the start of the traced run.
type span struct {
	Name   string  `json:"name"`
	Query  string  `json:"query"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Self is the span's duration less the part its children cover.
	Self float64 `json:"self_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children are counted once.
func selfTime(s span, children []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - covered
}

// The spans of one query. budgetSteps, in the order the query passes
// through them, tile its latency; shard.submit runs inside
// core.first_page, and server.submit_rtt (the whole POST round trip)
// overlaps the steps after server.accept, because the query proceeds
// while the 202 travels back.
const (
	spanQuery       = "query"
	spanLag         = "gen.sched_lag"
	spanSubmit      = "server.submit_rtt"
	spanAccept      = "server.accept"
	spanQueueWait   = "admission.queue_wait"
	spanFirstPage   = "core.first_page"
	spanShardSubmit = "shard.submit"
	spanScanCycle   = "core.scan_cycle"
	spanGather      = "shard.gather"
	spanCollectWait = "client.collect_wait"
	spanFetch       = "server.result_fetch"
)

var budgetSteps = []string{spanLag, spanAccept, spanQueueWait, spanFirstPage, spanScanCycle, spanGather, spanCollectWait, spanFetch}

// querySpans lays one query's client timeline, executor-seam span and
// server trace marks on the shared clock. ok is false when the trace is
// incomplete.
func querySpans(s *sample, sub submitSpan, tr server.TraceResponse, epoch time.Time) ([]span, bool) {
	at := make(map[string]time.Time)
	for _, m := range tr.Stages {
		at[m.Stage] = sub.traceStart.Add(time.Duration(m.OffsetMicros) * time.Microsecond)
	}
	enq, adm, done := at[obs.StageEnqueued], at[obs.StageAdmitted], at[obs.StageCycleComplete]
	dlv := at[obs.StageDelivered]
	if enq.IsZero() || adm.IsZero() || done.IsZero() || dlv.IsZero() {
		return nil, false
	}
	first, ok := at[obs.StageFirstPage]
	if !ok {
		first = done // every page pruned: the cycle closes without one
	}
	rel := func(t time.Time) float64 { return us(t.Sub(epoch)) }
	mk := func(name, parent string, a, b time.Time) span {
		return span{Name: name, Query: s.id, Parent: parent, Start: rel(a), End: rel(b)}
	}
	begin := s.sent
	if s.open {
		begin = s.due
	}
	out := []span{mk(spanQuery, "", begin, s.done)}
	if s.open {
		out = append(out, mk(spanLag, spanQuery, s.due, s.sent))
	}
	// The result may be ready before the collector, working in
	// submission order, asks for it: that wait is the client's own.
	ready := dlv
	if s.asked.After(ready) {
		ready = s.asked
	}
	out = append(out,
		mk(spanSubmit, spanQuery, s.sent, s.acked),
		mk(spanAccept, spanQuery, s.sent, enq),
		mk(spanQueueWait, spanQuery, enq, adm),
		mk(spanFirstPage, spanQuery, adm, first),
		mk(spanShardSubmit, spanFirstPage, sub.start, sub.end),
		mk(spanScanCycle, spanQuery, first, done),
		mk(spanGather, spanQuery, done, dlv),
		mk(spanCollectWait, spanQuery, dlv, ready),
		mk(spanFetch, spanQuery, ready, s.done),
	)
	return out, true
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracedWindow is what one traced window yields.
type tracedWindow struct {
	ds       *ssb.Dataset
	spans    []span
	byName   map[string][]float64 // span durations, us
	residual []float64            // per query: (Σ |step| − latency) ÷ latency
	lat      []float64            // per query latency, ms
	pages    int64                // page reads in the window
	nanos    int64                // time inside ReadPage
}

// traceWindow runs one workload against the in-process stack with the
// decorators on and, after the window, fetches every query's /trace and
// lays out its spans. The stack is stopped before it returns, so that
// what the caller times afterwards has the machine to itself.
func traceWindow(ctx context.Context, w workload, o options) (*tracedWindow, error) {
	st, err := startStack(o.rows, o.shards, true)
	if err != nil {
		return nil, err
	}
	defer st.stop()

	epoch := time.Now()
	ld := startLoad(ctx, st.base, w.lanes(st.ds, o.seed), checkEvery)
	time.Sleep(o.warm)
	window := []time.Time{time.Now()}
	pages0, nanos0 := st.rec.pageReads.Load(), st.rec.pageNanos.Load()
	time.Sleep(o.traced)
	window = append(window, time.Now())
	tw := &tracedWindow{ds: st.ds, byName: make(map[string][]float64),
		pages: st.rec.pageReads.Load() - pages0, nanos: st.rec.pageNanos.Load() - nanos0}
	samples := ld.stop()

	reads, skipped := 0, 0
	for _, s := range samples {
		if s.update != nil || sliceOf(window, s.done) < 0 {
			continue
		}
		reads++
		if s.failure != "" {
			return nil, fmt.Errorf("traced run: %s", s.failure)
		}
		tr, err := s.q.Trace(ctx)
		if err != nil {
			return nil, fmt.Errorf("traced run: GET /query/%s/trace: %w", s.id, err)
		}
		st.rec.mu.Lock()
		sub, seen := st.rec.submits[s.id]
		st.rec.mu.Unlock()
		qs, ok := querySpans(s, sub, tr, epoch)
		if !seen || !ok {
			skipped++
			continue
		}
		root, sum := qs[0], 0.0
		for i := range qs {
			var children []span
			for _, c := range qs {
				if c.Parent == qs[i].Name {
					children = append(children, c)
				}
			}
			qs[i].Self = selfTime(qs[i], children)
			if i > 0 {
				tw.byName[qs[i].Name] = append(tw.byName[qs[i].Name], qs[i].dur())
			}
			// The steps share their boundaries, so their signed durations
			// always add up to the latency; their absolute durations do
			// only if every boundary is in order on the client's clock.
			if slices.Contains(budgetSteps, qs[i].Name) {
				sum += math.Abs(qs[i].dur())
			}
		}
		tw.spans = append(tw.spans, qs...)
		tw.lat = append(tw.lat, root.dur()/1000)
		tw.residual = append(tw.residual, (sum-root.dur())/root.dur())
	}
	if len(tw.lat) == 0 || skipped > reads/10 {
		return nil, fmt.Errorf("traced run: %d of %d queries had no complete trace", skipped, reads)
	}
	return tw, nil
}

// runTraced reports one workload's per-layer times from a traced
// window: each span's median, the budget's residual, and what tracing
// cost against the live run's median latency. The spans go to
// bench/out/trace-<workload>.json.
func runTraced(ctx context.Context, root string, w workload, o options, live *runResult) (map[string]metric, error) {
	tw, err := traceWindow(ctx, w, o)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	buf, err := json.Marshal(traceFile{Workload: w.name, Seed: o.seed, Spans: tw.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, "trace-"+w.name+".json"), buf, 0o644); err != nil {
		return nil, err
	}

	n := len(tw.lat)
	m := map[string]metric{
		"budget.residual_share": {median(tw.residual), "share", n},
		"trace.overhead_share":  {median(tw.lat)/live.EndToEnd["query_p50_ms"].Value - 1, "share", n},
		"storage.read_page_us":  {ratio(float64(tw.nanos)/1000, float64(tw.pages)), "us", int(tw.pages)},
		"storage.pages_read":    {float64(tw.pages), "count", 1},
	}
	for name, key := range map[string]string{
		spanAccept:      "server.accept_us",
		spanQueueWait:   "admission.queue_wait_us",
		spanShardSubmit: "shard.submit_us",
		spanFirstPage:   "core.first_page_us",
		spanScanCycle:   "core.scan_cycle_us",
		spanGather:      "shard.gather_us",
		spanCollectWait: "client.collect_wait_us",
		spanFetch:       "server.result_fetch_us",
	} {
		m[key] = metric{median(tw.byName[name]), "us", len(tw.byName[name])}
	}
	timeFrontEnd(m, tw.ds, w, o.seed)
	timeResultPath(m, live.answers)
	return m, nil
}

// timeFrontEnd times sql.Parse, query.Bind and query.Fingerprint on the
// first reads of the workload's own request stream.
func timeFrontEnd(m map[string]metric, ds *ssb.Dataset, w workload, seed int64) {
	const n = 300
	var parse, bind, finger []float64
	for _, l := range w.lanes(ds, seed) {
		if l.writer {
			continue
		}
		for i := 0; i < n; i++ {
			text := l.next().SQL
			t0 := time.Now()
			stmt, err := sql.Parse(text)
			t1 := time.Now()
			if err != nil {
				continue
			}
			b, err := query.Bind(stmt, ds.Star)
			t2 := time.Now()
			if err != nil {
				continue
			}
			for i, used := range b.DimRefs {
				if used {
					fingerprintSink += query.Fingerprint(b.DimPreds[i])
				}
			}
			t3 := time.Now()
			parse = append(parse, us(t1.Sub(t0)))
			bind = append(bind, us(t2.Sub(t1)))
			finger = append(finger, us(t3.Sub(t2)))
		}
	}
	m["sql.parse_us"] = metric{median(parse), "us", len(parse)}
	m["query.bind_us"] = metric{median(bind), "us", len(bind)}
	m["query.fingerprint_us"] = metric{median(finger), "us", len(finger)}
}

// fingerprintSink keeps the timed fingerprint calls from being removed.
var fingerprintSink uint64

// timeResultPath times, on the reference result sets of the queries the
// live run checked, what the server does to return rows
// (server.DecodeResults + JSON encode) and what the client does to read
// them (JSON decode with UseNumber, as internal/server/client does).
func timeResultPath(m map[string]metric, answers []*refAnswer) {
	var encode, size, decode []float64
	for _, a := range answers {
		t0 := time.Now()
		res := server.ResultResponse{ID: "q-000000", State: "done", Rows: server.DecodeResults(a.bound, a.raw)}
		res.Columns = append(append([]string{}, a.bound.GroupNames...), a.bound.AggNames...)
		res.RowCount = len(res.Rows)
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(res); err != nil {
			continue
		}
		t1 := time.Now()
		var back server.ResultResponse
		dec := json.NewDecoder(bytes.NewReader(body.Bytes()))
		dec.UseNumber()
		if err := dec.Decode(&back); err != nil {
			continue
		}
		t2 := time.Now()
		encode = append(encode, us(t1.Sub(t0)))
		size = append(size, float64(body.Len()))
		decode = append(decode, us(t2.Sub(t1)))
	}
	m["server.result_encode_us"] = metric{median(encode), "us", len(encode)}
	m["server.result_bytes"] = metric{median(size), "bytes", len(size)}
	m["client.decode_us"] = metric{median(decode), "us", len(decode)}
}
