// Package metriccheck exercises the two frozen observability
// surfaces: label cardinality on vector metrics and registration
// discipline on the Registry. The
// analyzer matches the obs types by name (CounterVec, GaugeVec,
// Registry), so the fixture models them locally and stays stdlib-only.
package metriccheck

// CounterVec models obs.CounterVec by name.
type CounterVec struct{}

// With selects the child counter for a label combination.
func (v *CounterVec) With(labels ...string) *Counter { return &Counter{} }

// Counter models obs.Counter.
type Counter struct{}

func (c *Counter) Inc() {}

// GaugeVec models obs.GaugeVec by name.
type GaugeVec struct{}

func (v *GaugeVec) With(labels ...string) *Counter { return &Counter{} }

// Registry models obs.Registry by name; the constructor methods are
// the registration surface the analyzer audits.
type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter       { return &Counter{} }
func (r *Registry) CounterVec(name, help string) *CounterVec { return &CounterVec{} }
func (r *Registry) Gauge(name, help string) *Counter         { return &Counter{} }

// --- label cardinality ---

const methodLabel = "GET"

// ConstLabelOK: literals and constants are bounded.
func ConstLabelOK(v *CounterVec) {
	v.With("query", methodLabel).Inc()
}

// LocalBoundedOK is the execPath pattern: a local assigned only
// constants stays bounded.
func LocalBoundedOK(v *CounterVec, vectorized bool) {
	path := "row"
	if vectorized {
		path = "vectorized"
	}
	v.With(path).Inc()
}

// record is the instrument middleware shape: the label comes in as a
// parameter, bounded because every call site passes a literal.
func record(v *CounterVec, route string) {
	v.With(route).Inc()
}

func RecordCallers(v *CounterVec) {
	record(v, "/query")
	record(v, "/stats")
}

// RequestLabelBuggy is the cardinality defect: a request-derived
// string becomes a label and mints one time series per distinct value.
func RequestLabelBuggy(v *CounterVec, userQuery string) {
	v.With(userQuery).Inc() // want `not compile-time bounded`
}

// DerivedLocalBuggy: a local fed from an unbounded parameter is
// unbounded too.
func DerivedLocalBuggy(g *GaugeVec, q string) {
	label := q
	g.With(label).Inc() // want `not compile-time bounded`
}

// WaivedLabel records the reviewed reason the value space is bounded
// even though the analysis cannot prove it.
func WaivedLabel(v *CounterVec, status string) {
	//xvlint:boundedlabel status codes are a fixed finite registry
	v.With(status).Inc()
}

// --- registration ---

const goodName = "xvserve_queries_total"

func RegisterOK(r *Registry) *Counter {
	return r.Counter(goodName, "queries served")
}

func RegisterBadNameBuggy(r *Registry) *Counter {
	return r.Counter("http-requests", "wrong shape") // want `does not match xvserve_`
}

func RegisterNonConstBuggy(r *Registry, name string) *Counter {
	return r.Counter(name, "dynamic name") // want `must be a compile-time constant`
}

func RegisterTwiceBuggy(r *Registry) {
	r.Gauge("xvserve_epoch", "the epoch")        // want `registered 2 times`
	r.Gauge("xvserve_epoch", "the epoch, again") // want `registered 2 times`
}
