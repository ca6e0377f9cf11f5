// Package obs is the observability layer of the serving stack: a
// standard-library-only metrics registry (counters, gauges, fixed-bucket
// latency histograms) with Prometheus text exposition, per-request traces
// carried through contexts, a bounded ring of recent traces, and runtime
// gauges. The daemon (internal/serve) threads one Registry and one trace
// per request through the whole query and update pipeline; the `xv
// stats` subcommand scrapes the exposition back with ParseHistograms.
//
// Everything here is safe for concurrent use. Exposition output is
// deterministic: metric families render in sorted name order and labeled
// series in sorted label order, so two scrapes of the same state are
// byte-identical (xvlint's detorder analyzer checks the package for map
// iteration that could break this).
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

// collector is one registered metric family: it knows its metadata and
// renders its sample lines (without the HELP/TYPE header) in a
// deterministic order.
type collector interface {
	meta() familyMeta
	write(b *strings.Builder)
}

type familyMeta struct {
	name, help, kind string
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]collector{}}
}

func (r *Registry) register(c collector) {
	m := c.meta()
	if !validName(m.name) {
		panic("obs: invalid metric name " + strconv.Quote(m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[m.name]; dup {
		panic("obs: duplicate metric name " + strconv.Quote(m.name))
	}
	r.families[m.name] = c
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{fam: familyMeta{name, help, "counter"}}
	r.register(c)
	return c
}

// Label is one label of a CounterVec family: its name and the values it
// may take. A value outside Values is counted under Overflow, so a family
// never holds more series than the product of (len(Values)+1) over its
// labels, whatever its callers pass.
type Label struct {
	Name   string
	Values []string
}

// Overflow is the label value every undeclared value is counted under.
const Overflow = "other"

// CounterVec registers a counter family whose labels take only their
// declared values; series are created on first With.
func (r *Registry) CounterVec(name, help string, labels ...Label) *CounterVec {
	v := &CounterVec{fam: familyMeta{name, help, "counter"}, children: map[string]*Counter{}}
	for _, l := range labels {
		if !validName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
		declared := make(map[string]bool, len(l.Values))
		for _, val := range l.Values {
			declared[val] = true
		}
		v.labels = append(v.labels, l.Name)
		v.declared = append(v.declared, declared)
	}
	r.register(v)
	return v
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{fam: familyMeta{name, help, "gauge"}}
	r.register(g)
	return g
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time (cheap snapshots of live state: cache sizes, epochs, goroutines).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{fam: familyMeta{name, help, "gauge"}, fn: fn})
}

// Histogram registers a fixed-bucket histogram. uppers are the ascending
// bucket upper bounds (an implicit +Inf bucket is always appended); nil
// uses DefBuckets, which suit request latencies in seconds.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefBuckets
	}
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic("obs: histogram buckets for " + name + " are not strictly ascending")
		}
	}
	h := &Histogram{fam: familyMeta{name, help, "histogram"},
		uppers: append([]float64(nil), uppers...),
		counts: make([]atomic.Int64, len(uppers)+1)}
	r.register(h)
	return h
}

// DefBuckets spans 25µs to 10s: the range of a cached-plan point lookup up
// to a long analytical query, in seconds.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	var names []string
	for n := range r.families {
		names = append(names, n)
	}
	cols := make([]collector, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		cols = append(cols, r.families[n])
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, c := range cols {
		m := c.meta()
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		c.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	fam    familyMeta
	labels string // rendered {k="v",...} suffix; "" for unlabeled
	n      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d, which must not be negative (counters only go up).
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

func (c *Counter) meta() familyMeta { return c.fam }

func (c *Counter) write(b *strings.Builder) {
	b.WriteString(c.fam.name)
	b.WriteString(c.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.n.Load(), 10))
	b.WriteByte('\n')
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	fam      familyMeta
	labels   []string
	declared []map[string]bool // per label, its declared values
	mu       sync.Mutex
	children map[string]*Counter
}

// bound returns values with each one its label does not declare replaced
// by Overflow, copying only when a replacement is needed. The number of
// values must match the registered labels.
func (v *CounterVec) bound(values []string) []string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label value(s), got %d", v.fam.name, len(v.labels), len(values)))
	}
	copied := false
	for i, val := range values {
		if v.declared[i][val] {
			continue
		}
		if !copied {
			values = append([]string(nil), values...)
			copied = true
		}
		values[i] = Overflow
	}
	return values
}

// With returns the counter for the given label values (created on first
// use); an undeclared value selects its label's Overflow series.
func (v *CounterVec) With(values ...string) *Counter {
	values = v.bound(values)
	key := strings.Join(values, "\x1f")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		var sb strings.Builder
		sb.WriteByte('{')
		for i, l := range v.labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
		c = &Counter{fam: v.fam, labels: sb.String()}
		v.children[key] = c
	}
	return c
}

// Value returns the current count of the series With would select for the
// given label values, without creating it (0 when absent).
func (v *CounterVec) Value(values ...string) int64 {
	key := strings.Join(v.bound(values), "\x1f")
	v.mu.Lock()
	c := v.children[key]
	v.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

func (v *CounterVec) meta() familyMeta { return v.fam }

func (v *CounterVec) write(b *strings.Builder) {
	v.mu.Lock()
	var keys []string
	for k := range v.children {
		keys = append(keys, k)
	}
	kids := make([]*Counter, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		kids = append(kids, v.children[k])
	}
	v.mu.Unlock()
	for _, c := range kids {
		c.write(b)
	}
}

// Gauge is a settable float metric (current sizes, epochs, thresholds).
type Gauge struct {
	fam  familyMeta
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) meta() familyMeta { return g.fam }

func (g *Gauge) write(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.fam.name, formatFloat(g.Value()))
}

type gaugeFunc struct {
	fam familyMeta
	fn  func() float64
}

func (g *gaugeFunc) meta() familyMeta { return g.fam }

func (g *gaugeFunc) write(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.fam.name, formatFloat(g.fn()))
}

// Histogram counts observations into fixed buckets and keeps their sum; it
// is the latency metric of the pipeline phases. Observations are lock-free
// (one atomic add per bucket walk plus a CAS loop for the float sum).
type Histogram struct {
	fam    familyMeta
	uppers []float64      // ascending upper bounds, excluding +Inf
	counts []atomic.Int64 // len(uppers)+1; last is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
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

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot freezes the histogram's state for quantile estimation. The
// per-bucket counts are loaded one atomic at a time, so a snapshot taken
// concurrently with observations may be torn by a few in-flight counts;
// for monitoring-grade quantiles that is immaterial.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Uppers: append([]float64(nil), h.uppers...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

func (h *Histogram) meta() familyMeta { return h.fam }

func (h *Histogram) write(b *strings.Builder) {
	var cum int64
	for i, up := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", h.fam.name, formatFloat(up), cum)
	}
	cum += h.counts[len(h.uppers)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.fam.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.fam.name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", h.fam.name, cum)
}

// HistogramSnapshot is a frozen histogram: bucket bounds, per-bucket
// (non-cumulative) counts with a final +Inf bucket, sum and total count.
// It is produced by Histogram.Snapshot and by ParseHistograms.
type HistogramSnapshot struct {
	Uppers []float64 // ascending upper bounds, excluding +Inf
	Counts []int64   // len(Uppers)+1, last is the +Inf bucket
	Sum    float64
	Count  int64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank — the same estimate Prometheus'
// histogram_quantile computes. It returns NaN for an empty histogram and
// the highest finite bound when the rank falls in the +Inf bucket; use
// QuantileBound to distinguish that overflow clamp from a real estimate.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	v, _ := s.QuantileBound(q)
	return v
}

// QuantileBound is Quantile with an explicit overflow indicator: when the
// target rank falls in the +Inf bucket the true quantile is unknown, so it
// returns the highest finite bound with overflow=true, meaning "at least
// this much". Displays should render such a value as a lower bound (e.g.
// ">10s"), not as the estimate itself.
func (s HistogramSnapshot) QuantileBound(q float64) (v float64, overflow bool) {
	if s.Count == 0 || q <= 0 || q > 1 {
		return math.NaN(), false
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Uppers) {
			// Target rank is past the last finite bound.
			if len(s.Uppers) == 0 {
				return math.NaN(), false
			}
			return s.Uppers[len(s.Uppers)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = s.Uppers[i-1]
		}
		if c == 0 {
			return s.Uppers[i], false
		}
		return lo + (s.Uppers[i]-lo)*(rank-prev)/float64(c), false
	}
	if len(s.Uppers) == 0 {
		return math.NaN(), false
	}
	return s.Uppers[len(s.Uppers)-1], true
}

// formatFloat renders a sample value: integers without a decimal point,
// everything else in the shortest exact form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
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

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
