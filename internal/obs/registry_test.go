package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7", g.Value())
	}
	r.GaugeFunc("test_func", "sampled", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total a counter\n# TYPE test_total counter\ntest_total 5\n",
		"# TYPE test_gauge gauge\ntest_gauge 7\n",
		"test_func 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests",
		Label{Name: "path", Values: []string{"/query", "/update"}},
		Label{Name: "code", Values: []string{"200", "404", "500"}})
	v.With("/query", "200").Add(3)
	v.With("/query", "404").Inc()
	v.With("/update", "200").Inc()
	if got := v.Value("/query", "200"); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if got := v.Value("/update", "500"); got != 0 {
		t.Fatalf("absent series Value = %d, want 0", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Series render sorted by label values, once per family header.
	i200 := strings.Index(out, `req_total{path="/query",code="200"} 3`)
	i404 := strings.Index(out, `req_total{path="/query",code="404"} 1`)
	iUpd := strings.Index(out, `req_total{path="/update",code="200"} 1`)
	if i200 < 0 || i404 < 0 || iUpd < 0 || !(i200 < i404 && i404 < iUpd) {
		t.Fatalf("vec series missing or out of order:\n%s", out)
	}
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Fatalf("family header not unique:\n%s", out)
	}
}

// TestCounterVecUndeclaredValues pins the cardinality bound: a value a
// label does not declare is counted under Overflow, Value reads the same
// series, and no stream of distinct inputs grows the family past the
// product of (declared values + 1).
func TestCounterVecUndeclaredValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("bounded_total", "bounded",
		Label{Name: "path", Values: []string{"/query", "/update"}},
		Label{Name: "code", Values: []string{"200", "400"}})
	v.With("/query", "200").Inc()
	v.With("/query", "418").Inc()
	v.With("/nope", "200").Add(2)
	v.With("/nope", "999").Add(3)
	for _, c := range []struct {
		path, code string
		want       int64
	}{
		{"/query", "200", 1},
		{"/query", Overflow, 1},
		{"/query", "419", 1}, // another undeclared code reads the same series
		{Overflow, "200", 2},
		{"/elsewhere", "200", 2},
		{Overflow, Overflow, 3},
		{"/update", "400", 0},
	} {
		if got := v.Value(c.path, c.code); got != c.want {
			t.Errorf("Value(%q, %q) = %d, want %d", c.path, c.code, got, c.want)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bounded_total{path="/query",code="other"} 1`,
		`bounded_total{path="other",code="200"} 2`,
		`bounded_total{path="other",code="other"} 3`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}

	// 1,000 distinct inputs per label touch at most (2+1)*(2+1) series.
	for i := 0; i < 1000; i++ {
		v.With(fmt.Sprintf("/p%d", i), strconv.Itoa(1000+i)).Inc()
		v.With("/update", strconv.Itoa(i)).Inc()
	}
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "bounded_total{"); n > 9 {
		t.Fatalf("%d series after 2,000 undeclared inputs, want at most 9:\n%s", n, b.String())
	}
	if got := v.Value(Overflow, Overflow); got != 1003 {
		t.Fatalf("overflow series = %d, want 1003", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "escapes", Label{Name: "view", Values: []string{"a\"b\\c\nd"}})
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{view="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	s := h.Snapshot()
	wantCounts := []int64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 6 {
		t.Fatalf("ObserveDuration not counted")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="10"} 5`,
		`lat_seconds_bucket{le="+Inf"} 6`,
		"lat_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "boundaries", []float64{1, 2})
	h.Observe(1) // le is inclusive: exactly 1 lands in the first bucket
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("le=1 bucket = %d, want 1 (le is inclusive)", s.Counts[0])
	}
}

func TestQuantile(t *testing.T) {
	s := HistogramSnapshot{
		Uppers: []float64{1, 2, 4},
		Counts: []int64{10, 10, 0, 0}, // 20 observations, uniform over (0,2]
		Count:  20,
	}
	if got := s.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := s.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p75 = %v, want 1.5", got)
	}
	if got := s.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("p100 = %v, want 2", got)
	}
	// Rank in the +Inf bucket clamps to the highest finite bound, and
	// QuantileBound reports the clamp so callers can render ">1s" instead
	// of claiming the bound is the estimate.
	inf := HistogramSnapshot{Uppers: []float64{1}, Counts: []int64{1, 9}, Count: 10}
	if got := inf.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
	if v, overflow := inf.QuantileBound(0.99); v != 1 || !overflow {
		t.Fatalf("QuantileBound(0.99) = %v, %v, want 1, true", v, overflow)
	}
	if v, overflow := inf.QuantileBound(0.1); v != 1 || overflow {
		t.Fatalf("QuantileBound(0.1) = %v, %v, want 1, false", v, overflow)
	}
	if _, overflow := s.QuantileBound(0.75); overflow {
		t.Fatal("in-range quantile must not report overflow")
	}
	empty := HistogramSnapshot{Uppers: []float64{1}, Counts: []int64{0, 0}}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	if !math.IsNaN(s.Quantile(0)) || !math.IsNaN(s.Quantile(1.5)) {
		t.Fatal("out-of-range q must be NaN")
	}
}

// TestExpositionDeterministic pins the ordering contract: families sorted
// by name, two renders byte-identical.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last").Inc()
	r.Counter("aa_total", "first").Inc()
	r.Histogram("mm_seconds", "middle", []float64{1}).Observe(0.5)
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two renders of the same state differ")
	}
	iA := strings.Index(b1.String(), "# HELP aa_total")
	iM := strings.Index(b1.String(), "# HELP mm_seconds")
	iZ := strings.Index(b1.String(), "# HELP zz_total")
	if !(iA >= 0 && iA < iM && iM < iZ) {
		t.Fatalf("families not sorted:\n%s", b1.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic(t, "duplicate name", func() { r.Counter("dup_total", "y") })
	mustPanic(t, "invalid name", func() { r.Counter("1bad", "y") })
	mustPanic(t, "invalid label", func() { r.CounterVec("v_total", "y", Label{Name: "bad-label"}) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("h_seconds", "y", []float64{2, 1}) })
	v := r.CounterVec("arity_total", "y", Label{Name: "a"}, Label{Name: "b"})
	mustPanic(t, "label arity", func() { v.With("only-one") })
	mustPanic(t, "label arity on Value", func() { v.Value("x", "y", "z") })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestRegistryConcurrent hammers every metric kind from many goroutines
// while scraping (run with -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	g := r.Gauge("gg", "g")
	h := r.Histogram("hh_seconds", "h", nil)
	v := r.CounterVec("vv_total", "v", Label{Name: "k", Values: []string{"a", "b", "c"}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				g.SetInt(int64(j))
				h.Observe(float64(j) / 1000)
				v.With([]string{"a", "b", "c"}[j%3]).Inc()
				if j%50 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 1600 || h.Count() != 1600 {
		t.Fatalf("lost updates: counter=%d hist=%d", c.Value(), h.Count())
	}
	if v.Value("a")+v.Value("b")+v.Value("c") != 1600 {
		t.Fatal("vec lost updates")
	}
}
