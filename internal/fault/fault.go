// Package fault is a deterministic, seed-driven fault-injection
// framework for chaos-testing the CJOIN serving tier. A Spec — parsed
// from a compact string such as
//
//	seed=7;shard=1;scan-err=0.02;scan-stall=5ms@0.01;scan-fail=40;panic=pp@3
//
// — describes a reproducible fault schedule; an Injector derived from it
// for one shard wraps that shard's page source (transient I/O errors,
// latency stalls, hard failures at a chosen page position), feeds the
// dimension plane's admit-fault hook, and arms panic points inside the
// pipeline goroutines. Every hook is a method on a possibly-nil
// *Injector: when injection is disabled the receiver is nil and each
// call collapses to a single pointer test, so production paths pay
// nothing.
//
// The package is a leaf: it must not import internal/core (core imports
// it). PageSource below is a structural copy of core.PageSource; Go's
// implicit interface conversion bridges the two.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjoin/internal/obs"
)

// PageSource mirrors core.PageSource so sources can be wrapped without
// an import cycle.
type PageSource interface {
	NumCols() int
	RowsPerPage() int
	NumPages() int
	ReadPage(page int, dst []int64, scratch []byte) (int, error)
}

// Panic sites accepted by the panic=SITE@N clause, matching the three
// goroutines a core.Pipeline runs.
const (
	SitePreprocessor = "pp"   // preprocessor loop, visited once per page
	SiteDistributor  = "dist" // distributor loop, visited once per batch
	SiteManager      = "mgr"  // pipeline manager loop, visited per command
)

// Spec is a parsed fault schedule. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every probabilistic decision; equal seeds replay the
	// exact same schedule. Default 1.
	Seed int64
	// Shard restricts injection to one shard index; -1 targets all.
	Shard int
	// ScanErrProb is the per-ReadPage probability of a transient I/O
	// error (retryable at the page boundary).
	ScanErrProb float64
	// ScanStallProb / ScanStallDur inject a latency stall into ReadPage
	// with the given probability. Stalls abort early when the pipeline
	// stops, so they never outlive their pipeline.
	ScanStallProb float64
	ScanStallDur  time.Duration
	// ScanFailAt hard-fails the N-th ReadPage call (0-based, counted
	// across scan cycles) and every call after it — the disk dies at a
	// chosen point in the workload and stays dead. -1 disables.
	ScanFailAt int
	// AdmitErrProb is the probability that a dimension-plane admission
	// fails with an injected error.
	AdmitErrProb float64
	// PanicSite/PanicAfter panic inside the named pipeline goroutine on
	// its PanicAfter-th visit (1-based). Empty site disables.
	PanicSite  string
	PanicAfter int64
}

// Parse decodes a -chaos spec string: semicolon-separated key=value
// clauses. An empty string yields a nil Spec (injection disabled).
//
//	seed=N          rng seed (default 1)
//	shard=N         target shard index (default -1: all shards)
//	scan-err=P      transient ReadPage error probability
//	scan-stall=D@P  stall ReadPage for duration D with probability P
//	scan-fail=N     hard-fail the Nth page read onward (kills the pipeline)
//	admit-err=P     dimension admission failure probability
//	panic=SITE@N    panic in goroutine SITE (pp|dist|mgr) on visit N
func Parse(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &Spec{Seed: 1, Shard: -1, ScanFailAt: -1}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		case "shard":
			spec.Shard, err = strconv.Atoi(v)
		case "scan-err":
			spec.ScanErrProb, err = parseProb(v)
		case "scan-stall":
			d, p, ok := strings.Cut(v, "@")
			if !ok {
				return nil, fmt.Errorf("fault: scan-stall wants DURATION@PROB, got %q", v)
			}
			if spec.ScanStallDur, err = time.ParseDuration(d); err == nil {
				spec.ScanStallProb, err = parseProb(p)
			}
		case "scan-fail":
			spec.ScanFailAt, err = strconv.Atoi(v)
		case "admit-err":
			spec.AdmitErrProb, err = parseProb(v)
		case "panic":
			site, n, ok := strings.Cut(v, "@")
			if !ok {
				n = "1"
			}
			switch site {
			case SitePreprocessor, SiteDistributor, SiteManager:
				spec.PanicSite = site
			default:
				return nil, fmt.Errorf("fault: unknown panic site %q (want pp|dist|mgr)", site)
			}
			spec.PanicAfter, err = strconv.ParseInt(n, 10, 64)
			if err == nil && spec.PanicAfter < 1 {
				return nil, fmt.Errorf("fault: panic visit count must be >= 1, got %d", spec.PanicAfter)
			}
		default:
			return nil, fmt.Errorf("fault: unknown clause %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %v", clause, err)
		}
	}
	return spec, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

// String renders the Spec back into Parse's grammar.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	add := func(f string, args ...any) { parts = append(parts, fmt.Sprintf(f, args...)) }
	add("seed=%d", s.Seed)
	if s.Shard >= 0 {
		add("shard=%d", s.Shard)
	}
	if s.ScanErrProb > 0 {
		add("scan-err=%v", s.ScanErrProb)
	}
	if s.ScanStallProb > 0 {
		add("scan-stall=%v@%v", s.ScanStallDur, s.ScanStallProb)
	}
	if s.ScanFailAt >= 0 {
		add("scan-fail=%d", s.ScanFailAt)
	}
	if s.AdmitErrProb > 0 {
		add("admit-err=%v", s.AdmitErrProb)
	}
	if s.PanicSite != "" {
		add("panic=%s@%d", s.PanicSite, s.PanicAfter)
	}
	return strings.Join(parts, ";")
}

// ForShard derives the Injector for one shard, or nil when the Spec is
// nil or targets a different shard. Each shard gets an independent rng
// stream (seed mixed with the shard index) so a multi-shard schedule is
// deterministic regardless of goroutine interleaving across shards.
//
// Every fired fault counts in r as cjoin_fault_injected_total{site,shard},
// so chaos tests can assert injections actually happened instead of
// inferring them from failures; those series are the Injector's only
// counts (Counters reads them). A nil r means a private registry.
func (s *Spec) ForShard(shard int, r *obs.Registry) *Injector {
	if s == nil || (s.Shard >= 0 && s.Shard != shard) {
		return nil
	}
	if r == nil {
		r = obs.NewRegistry()
	}
	fired := r.CounterVec("cjoin_fault_injected_total",
		"Chaos faults actually fired, by injection site and shard.",
		"site", "shard")
	sh := strconv.Itoa(shard)
	return &Injector{
		spec:  *s,
		shard: shard,
		rng:   rand.New(rand.NewSource(mix(s.Seed, int64(shard)))),
		om: injectorMetrics{
			transient: fired.With("scan-err", sh),
			stalls:    fired.With("scan-stall", sh),
			hardFails: fired.With("scan-fail", sh),
			admitErrs: fired.With("admit-err", sh),
			panics:    fired.With("panic", sh),
		},
	}
}

// mix is splitmix64 over seed and shard, so neighboring shard indices
// get uncorrelated streams.
func mix(seed, shard int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Error is an injected failure. Transient errors model recoverable I/O
// hiccups and are retried by the pipeline's page-boundary backoff; hard
// errors escalate to pipeline failure.
type Error struct {
	Op    string // "read-page" or "admit"
	Page  int    // page index for read-page faults, -1 otherwise
	Shard int
	Hard  bool
}

func (e *Error) Error() string {
	kind := "transient"
	if e.Hard {
		kind = "hard"
	}
	if e.Page >= 0 {
		return fmt.Sprintf("fault: injected %s %s error (shard %d, page %d)", kind, e.Op, e.Shard, e.Page)
	}
	return fmt.Sprintf("fault: injected %s %s error (shard %d)", kind, e.Op, e.Shard)
}

// Transient reports whether the error models a recoverable condition.
// core's scan retry loop discovers this via an anonymous interface.
func (e *Error) Transient() bool { return !e.Hard }

// Panic is the value thrown by an armed panic point, so recover sites
// can tell an injected crash from a genuine bug in logs.
type Panic struct {
	Site  string
	Shard int
}

func (p *Panic) Error() string {
	return fmt.Sprintf("fault: injected panic at %s (shard %d)", p.Site, p.Shard)
}

// Counters reports how many faults an Injector has actually fired: its
// cjoin_fault_injected_total series.
type Counters struct {
	Transient int64
	Stalls    int64
	HardFails int64
	AdmitErrs int64
	Panics    int64
}

// Injector executes one shard's slice of a Spec. All methods are safe
// on a nil receiver — the disabled configuration — and safe for
// concurrent use.
type Injector struct {
	spec  Spec
	shard int

	mu  sync.Mutex
	rng *rand.Rand

	visits atomic.Int64 // panic-site visits

	om injectorMetrics
}

// injectorMetrics holds the fired-fault counters.
type injectorMetrics struct {
	transient, stalls, hardFails, admitErrs, panics *obs.Counter
}

// Shard returns the shard index this injector was derived for.
func (in *Injector) Shard() int {
	if in == nil {
		return -1
	}
	return in.shard
}

// Counters snapshots the fired-fault counts.
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return Counters{
		Transient: in.om.transient.Value(),
		Stalls:    in.om.stalls.Value(),
		HardFails: in.om.hardFails.Value(),
		AdmitErrs: in.om.admitErrs.Value(),
		Panics:    in.om.panics.Value(),
	}
}

// roll draws one deterministic Bernoulli sample.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

// WrapSource interposes the scan-fault schedule on src. stop aborts
// in-flight stalls when the owning pipeline shuts down. When the
// injector is nil or has no scan clauses, src is returned untouched —
// the hot read path keeps its direct devirtualizable call.
func (in *Injector) WrapSource(src PageSource, stop <-chan struct{}) PageSource {
	if in == nil {
		return src
	}
	if in.spec.ScanErrProb <= 0 && in.spec.ScanStallProb <= 0 && in.spec.ScanFailAt < 0 {
		return src
	}
	return &faultSource{src: src, in: in, stop: stop}
}

// AdmitErr returns an injected admission error, or nil. Wire it into
// dimplane.Config.AdmitFault.
func (in *Injector) AdmitErr() error {
	if in == nil || in.spec.AdmitErrProb <= 0 {
		return nil
	}
	if !in.roll(in.spec.AdmitErrProb) {
		return nil
	}
	in.om.admitErrs.Inc()
	return &Error{Op: "admit", Page: -1, Shard: in.shard}
}

// PanicPoint panics with a *Panic when the named site reaches its armed
// visit count. Pipeline goroutines call it once per loop iteration; the
// disabled path is one nil test plus one string compare.
func (in *Injector) PanicPoint(site string) {
	if in == nil || in.spec.PanicSite != site {
		return
	}
	if in.visits.Add(1) == in.spec.PanicAfter {
		in.om.panics.Inc()
		panic(&Panic{Site: site, Shard: in.shard})
	}
}

// faultSource is the injecting PageSource wrapper. Geometry calls pass
// through untouched; ReadPage applies, in order: the hard-fail page
// check, a possible stall, a possible transient error, then the real
// read.
type faultSource struct {
	src   PageSource
	in    *Injector
	stop  <-chan struct{}
	reads atomic.Int64
}

func (fs *faultSource) NumCols() int     { return fs.src.NumCols() }
func (fs *faultSource) RowsPerPage() int { return fs.src.RowsPerPage() }
func (fs *faultSource) NumPages() int    { return fs.src.NumPages() }

func (fs *faultSource) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	in := fs.in
	if in.spec.ScanFailAt >= 0 && fs.reads.Add(1) > int64(in.spec.ScanFailAt) {
		in.om.hardFails.Inc()
		return 0, &Error{Op: "read-page", Page: page, Shard: in.shard, Hard: true}
	}
	if in.spec.ScanStallProb > 0 && in.roll(in.spec.ScanStallProb) {
		in.om.stalls.Inc()
		t := time.NewTimer(in.spec.ScanStallDur)
		select {
		case <-t.C:
		case <-fs.stop:
			t.Stop()
		}
	}
	if in.spec.ScanErrProb > 0 && in.roll(in.spec.ScanErrProb) {
		in.om.transient.Inc()
		return 0, &Error{Op: "read-page", Page: page, Shard: in.shard}
	}
	return fs.src.ReadPage(page, dst, scratch)
}
