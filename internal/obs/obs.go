// Package obs is the observability substrate of the OASSIS engine: atomic
// counters, gauges and fixed-bucket histograms collected in a Registry with
// a Prometheus text exporter, per-subsystem metric sets (sets.go), and the
// journal (journal.go): one event stream that records both crowd-run
// events and timed program spans into one ring, with one encoder and one
// clock.
//
// The package is built around one contract: **disabled observability costs a
// nil check and nothing else**. Every metric set is a pointer whose methods
// are nil-receiver safe, so an uninstrumented engine carries nil pointers and
// each would-be instrumentation point reduces to a single predictable branch.
// No global state, no background goroutines, no allocation on the hot path:
// counters and gauges are single atomic words, histogram observation is one
// atomic add into a fixed bucket array, and recording a span on a nil
// journal never reads the clock.
//
// obs deliberately imports nothing outside the standard library, so every
// layer of the engine (assign, sparql, ontology, crowd, core, server) can
// depend on it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds used for every
// duration-in-seconds histogram: 100µs to 10s, roughly exponential.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultSizeBuckets are the bounds used for count-valued histograms
// (questions per round, border sizes).
var DefaultSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are upper bounds in ascending order; observations above the last bound
// land in the implicit +Inf bucket. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branchless-enough linear scan: bucket arrays are small (≤ ~20).
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the p-quantile (p clamped to [0,1]) by linear
// interpolation within the bucket holding the rank — the standard
// fixed-bucket estimator (what PromQL's histogram_quantile computes
// server-side). Observations in the +Inf overflow bucket are reported as
// the last finite bound: the estimator cannot see past its buckets.
// Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// metric is one named entry of a Registry.
type metric interface {
	metricName() string
	writeProm(w io.Writer)
}

// Registry holds named metrics and renders them in Prometheus text format.
// Lookups are get-or-create: asking twice for the same name returns the same
// metric, so sessions and servers can share one registry safely.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

func (r *Registry) getOrCreate(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.getOrCreate(name, func() metric {
		return &namedCounter{name: name, help: help}
	})
	nc, ok := m.(*namedCounter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	return &nc.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.getOrCreate(name, func() metric {
		return &namedGauge{name: name, help: help}
	})
	ng, ok := m.(*namedGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	return &ng.g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later bounds are ignored for an existing histogram).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.getOrCreate(name, func() metric {
		return &namedHistogram{name: name, help: help, h: NewHistogram(bounds)}
	})
	nh, ok := m.(*namedHistogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	return nh.h
}

// GaugeFunc registers a pull-style gauge evaluated at scrape time — the
// bridge for subsystems that keep their own cheap counters (the assign
// interner, the ontology closure index) and should not pay a push per event.
// Re-registering a name replaces its function, so a new session can rebind
// the space gauges without error.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.getOrCreate(name, func() metric {
		return &funcGauge{name: name, help: help}
	})
	fg, ok := m.(*funcGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	fg.mu.Lock()
	fg.fn = fn
	fg.mu.Unlock()
}

// CounterVec returns the named labeled counter family, creating it on first
// use. labels are the label keys, in render order.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	m := r.getOrCreate(name, func() metric {
		return &CounterVec{name: name, help: help, labels: labels, m: make(map[string]*vecEntry)}
	})
	cv, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	return cv
}

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	m := r.getOrCreate(name, func() metric {
		return &HistogramVec{name: name, help: help, labels: labels, bounds: bounds, m: make(map[string]*vecHistEntry)}
	})
	hv, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", name))
	}
	return hv
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	for _, m := range ms {
		m.writeProm(w)
	}
}

// --- concrete registry entries ---

type namedCounter struct {
	name, help string
	c          Counter
}

func (n *namedCounter) metricName() string { return n.name }
func (n *namedCounter) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		n.name, n.help, n.name, n.name, n.c.Value())
}

type namedGauge struct {
	name, help string
	g          Gauge
}

func (n *namedGauge) metricName() string { return n.name }
func (n *namedGauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
		n.name, n.help, n.name, n.name, n.g.Value())
}

type funcGauge struct {
	name, help string
	mu         sync.Mutex
	fn         func() float64
}

func (n *funcGauge) metricName() string { return n.name }
func (n *funcGauge) writeProm(w io.Writer) {
	n.mu.Lock()
	fn := n.fn
	n.mu.Unlock()
	var v float64
	if fn != nil {
		v = fn()
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		n.name, n.help, n.name, n.name, formatFloat(v))
}

type namedHistogram struct {
	name, help string
	h          *Histogram
}

func (n *namedHistogram) metricName() string { return n.name }
func (n *namedHistogram) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", n.name, n.help, n.name)
	writeHistogramLines(w, n.name, "", n.h)
}

// writeHistogramLines emits the cumulative _bucket/_sum/_count series.
// extraLabels, when non-empty, is a pre-rendered `k="v"` list without braces.
func writeHistogramLines(w io.Writer, name, extraLabels string, h *Histogram) {
	cum := int64(0)
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, extraLabels+sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels+sep, cum)
	if extraLabels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, extraLabels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extraLabels, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
	if h.Count() == 0 {
		return
	}
	// Pre-interpolated quantile gauges, so scrapers without PromQL (and
	// the scorecards endpoint) get p50/p95/p99 directly.
	for _, q := range quantileSeries {
		if extraLabels != "" {
			fmt.Fprintf(w, "%s_%s{%s} %s\n", name, q.suffix, extraLabels, formatFloat(h.Quantile(q.p)))
		} else {
			fmt.Fprintf(w, "%s_%s %s\n", name, q.suffix, formatFloat(h.Quantile(q.p)))
		}
	}
}

var quantileSeries = []struct {
	suffix string
	p      float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// --- labeled families ---

type vecEntry struct {
	values []string
	c      *Counter
}

// CounterVec is a family of counters distinguished by label values — the
// minimal slice of Prometheus's labeled metrics the server endpoints need.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	m          map[string]*vecEntry
}

// With returns the counter for the given label values (one per label key,
// in key order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.m[key]
	if !ok {
		e = &vecEntry{values: append([]string(nil), values...), c: &Counter{}}
		v.m[key] = e
	}
	return e.c
}

func (v *CounterVec) metricName() string { return v.name }
func (v *CounterVec) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name)
	for _, e := range v.sortedEntries() {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, renderLabels(v.labels, e.values), e.c.Value())
	}
}

func (v *CounterVec) sortedEntries() []*vecEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*vecEntry, 0, len(v.m))
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, v.m[k])
	}
	return out
}

type vecHistEntry struct {
	values []string
	h      *Histogram
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64
	mu         sync.Mutex
	m          map[string]*vecHistEntry
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.m[key]
	if !ok {
		e = &vecHistEntry{values: append([]string(nil), values...), h: NewHistogram(v.bounds)}
		v.m[key] = e
	}
	return e.h
}

func (v *HistogramVec) metricName() string { return v.name }
func (v *HistogramVec) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	v.mu.Lock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]*vecHistEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, v.m[k])
	}
	v.mu.Unlock()
	for _, e := range entries {
		writeHistogramLines(w, v.name, renderLabels(v.labels, e.values), e.h)
	}
}

// renderLabels renders `k1="v1",k2="v2"` (no braces). Values are escaped per
// the exposition format.
func renderLabels(keys, values []string) string {
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(val))
		sb.WriteString(`"`)
	}
	return sb.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
