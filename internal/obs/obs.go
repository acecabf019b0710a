// Package obs is the pipeline's telemetry plane: a dependency-free
// metrics core (atomic counters, gauges, and fixed-bucket histograms
// with lock-free Observe) plus a per-query lifecycle tracer
// (trace.go). The hot path never allocates: every metric is a
// pre-resolved handle doing one or two atomic adds, and a nil handle
// (the result of constructing against a nil *Registry) makes every
// method a no-op — so "instrumentation disabled" is a single nil
// registry, not a build tag or a branch per call site.
//
// Exposition is hand-rolled Prometheus text format (WritePrometheus)
// plus a flat Snapshot map for in-process delta scraping by tests.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families keyed by name. Registration is
// idempotent: asking for an existing family with a compatible shape
// returns the same underlying series, which is how N shard pipelines
// share one family and differentiate by label. A nil *Registry is the
// disabled plane — every constructor returns nil handles whose methods
// no-op.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type family struct {
	name   string
	help   string
	typ    string
	labels []string
	// histogram shape, shared by every series in the family
	bounds []int64
	scale  float64

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	vals []string
	c    *Counter
	g    *Gauge
	fn   func() float64
	h    *Histogram
}

// seriesKey joins label values with a separator that cannot occur in
// reasonable label values.
func seriesKey(vals []string) string { return strings.Join(vals, "\x1f") }

func (r *Registry) fam(name, help, typ string, labels []string, bounds []int64, scale float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: conflicting registration of %q: %s%v vs %s%v",
				name, f.typ, f.labels, typ, labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: bounds, scale: scale,
		series: make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := seriesKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{vals: append([]string(nil), vals...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = newHistogram(f.bounds, f.scale)
	}
	f.series[key] = s
	return s
}

// --- scalar metrics -------------------------------------------------

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (callers must keep it non-negative).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter registers (or reuses) an unlabeled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, typeCounter, nil, nil, 0).get(nil).c
}

// Gauge registers (or reuses) an unlabeled gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.fam(name, help, typeGauge, nil, nil, 0).get(nil).g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	s := r.fam(name, help, typeGauge, nil, nil, 0).get(nil)
	s.fn = fn
}

// --- histograms -----------------------------------------------------

// Histogram is a fixed-bucket histogram over int64 observations
// (typically nanoseconds, or raw sizes). Observe is lock-free: a
// binary search over the immutable bounds plus three atomic adds.
// Snapshots taken concurrently with writers are not a consistent cut
// (count/sum/buckets may each lag by an in-flight observation), which
// is the standard Prometheus trade and fine for monitoring. Nil-safe.
type Histogram struct {
	bounds []int64 // upper bounds, ascending; implicit +Inf last
	scale  float64 // multiplier applied at export (1e-9: nanos → seconds)
	counts []atomic.Int64
	sum    atomic.Int64
	cnt    atomic.Int64
}

func newHistogram(bounds []int64, scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return &Histogram{
		bounds: bounds,
		scale:  scale,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.cnt.Add(1)
}

// ObserveSince records the elapsed time since start in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Count is the number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.cnt.Load()
}

// Sum is the scaled sum of observations (seconds for duration
// histograms); 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) * h.scale
}

// Histogram registers (or reuses) an unlabeled histogram family with
// the given upper bounds (native units) and export scale.
func (r *Registry) Histogram(name, help string, bounds []int64, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.fam(name, help, typeHistogram, nil, bounds, scale).get(nil).h
}

// DurationHistogram is Histogram with the default latency bounds,
// observed in nanoseconds and exported in seconds.
func (r *Registry) DurationHistogram(name, help string) *Histogram {
	return r.Histogram(name, help, DurationBuckets(), 1e-9)
}

// DurationBuckets are the default latency bounds in nanoseconds:
// 1µs–10s on a 1/2.5/5 decade ladder, fine enough at the bottom to
// resolve the paper's sub-millisecond admission budget.
func DurationBuckets() []int64 {
	var b []int64
	for _, decade := range []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		b = append(b, decade, decade*5/2, decade*5)
	}
	return append(b, 1e10)
}

// ExpBuckets returns n exponential bounds starting at start with the
// given factor, for size histograms (pages, rows, bytes).
func ExpBuckets(start int64, factor float64, n int) []int64 {
	b := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b = append(b, int64(math.Round(v)))
		v *= factor
	}
	return b
}

// --- labeled vectors ------------------------------------------------

// CounterVec is a counter family with labels; With resolves one
// labeled series to a plain *Counter handle for the hot path.
type CounterVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use. Nil-safe.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(vals).c
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the labeled gauge. Nil-safe.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(vals).g
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the labeled histogram. Nil-safe.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(vals).h
}

// GaugeFuncVec is a gauge family with labels whose series are
// scrape-time functions.
type GaugeFuncVec struct{ f *family }

// With registers fn as the labeled series' value. Nil-safe.
func (v *GaugeFuncVec) With(fn func() float64, vals ...string) {
	if v == nil {
		return
	}
	v.f.get(vals).fn = fn
}

// CounterVec registers (or reuses) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.fam(name, help, typeCounter, labels, nil, 0)}
}

// GaugeVec registers (or reuses) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.fam(name, help, typeGauge, labels, nil, 0)}
}

// GaugeFuncVec registers (or reuses) a labeled scrape-time gauge family.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	if r == nil {
		return nil
	}
	return &GaugeFuncVec{f: r.fam(name, help, typeGauge, labels, nil, 0)}
}

// HistogramVec registers (or reuses) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []int64, scale float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.fam(name, help, typeHistogram, labels, bounds, scale)}
}

// DurationHistogramVec is HistogramVec with the default latency bounds.
func (r *Registry) DurationHistogramVec(name, help string, labels ...string) *HistogramVec {
	return r.HistogramVec(name, help, DurationBuckets(), 1e-9, labels...)
}

// --- exposition -----------------------------------------------------

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): sorted families, # HELP/# TYPE headers,
// escaped label values, cumulative histogram buckets with a +Inf
// bucket plus _sum and _count. Safe to call concurrently with writers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

func (f *family) write(b *strings.Builder) {
	ss := f.snapshotSeries()
	if len(ss) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range ss {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelBlock(f.labels, s.vals, "", ""), s.c.Value())
		case typeGauge:
			if s.fn != nil {
				fmt.Fprintf(b, "%s%s %s\n", f.name, labelBlock(f.labels, s.vals, "", ""), formatFloat(s.fn()))
			} else {
				fmt.Fprintf(b, "%s%s %d\n", f.name, labelBlock(f.labels, s.vals, "", ""), s.g.Value())
			}
		case typeHistogram:
			h := s.h
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				le := formatFloat(float64(bound) * h.scale)
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelBlock(f.labels, s.vals, "le", le), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelBlock(f.labels, s.vals, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelBlock(f.labels, s.vals, "", ""), formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelBlock(f.labels, s.vals, "", ""), h.Count())
		}
	}
}

// labelBlock renders {k1="v1",k2="v2"} (empty string when there are no
// labels), appending the extra pair (used for histogram le) last.
func labelBlock(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot flattens every series into name{labels} → value, with
// histograms contributing name_sum (scaled) and name_count. Tests and
// the harness diff two snapshots to get per-stage deltas without going
// through the text format.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.snapshotSeries() {
			lb := labelBlock(f.labels, s.vals, "", "")
			switch f.typ {
			case typeCounter:
				out[f.name+lb] = float64(s.c.Value())
			case typeGauge:
				if s.fn != nil {
					out[f.name+lb] = s.fn()
				} else {
					out[f.name+lb] = float64(s.g.Value())
				}
			case typeHistogram:
				out[f.name+"_sum"+lb] = s.h.Sum()
				out[f.name+"_count"+lb] = float64(s.h.Count())
			}
		}
	}
	return out
}
