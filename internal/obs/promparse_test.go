package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseHistogramsRoundTrip scrapes back what WritePrometheus emitted.
func TestParseHistogramsRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt_seconds", "round trip", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	r.Counter("plain_total", "not a histogram").Inc()
	r.Gauge("g", "gauge").Set(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	hs, err := ParseHistograms([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 {
		t.Fatalf("parsed %d histograms, want 1: %v", len(hs), hs)
	}
	got, ok := hs["rt_seconds"]
	if !ok {
		t.Fatalf("rt_seconds missing: %v", hs)
	}
	want := h.Snapshot()
	if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-9 {
		t.Fatalf("count/sum: got %+v want %+v", got, want)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, got, want)
		}
	}
	if q := got.Quantile(0.5); math.IsNaN(q) {
		t.Fatal("quantile over scraped histogram is NaN")
	}
}

func TestParseHistogramsErrors(t *testing.T) {
	cases := map[string]string{
		"non-monotone": "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf-vs-count": "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 9\n",
		"missing-inf":  "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bad-le":       "h_bucket{le=\"xx\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bad-sample":   "h_bucket{le=\"1\"} notanumber\n",
	}
	for name, in := range cases {
		if _, err := ParseHistograms([]byte(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Comments, blanks and unrelated series are skipped quietly.
	ok := "# HELP x y\n\nplain_total 3\nother_sum 1\n"
	hs, err := ParseHistograms([]byte(ok))
	if err != nil || len(hs) != 0 {
		t.Fatalf("benign input: %v %v", hs, err)
	}
}

// TestParseSamples scrapes back every sample WritePrometheus emitted,
// labelled ones under their full series text.
func TestParseSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "counter").Add(3)
	r.Gauge("g", "gauge").Set(-1.5)
	r.CounterVec("req_total", "by code", Label{Name: "code", Values: []string{"200"}}).With("200").Inc()
	r.Histogram("h_seconds", "latency", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSamples([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"plain_total":              3,
		"g":                        -1.5,
		`req_total{code="200"}`:    1,
		`h_seconds_bucket{le="1"}`: 1,
		"h_seconds_sum":            0.5,
		"h_seconds_count":          1,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
	for name, in := range map[string]string{
		"bad-sample": "x notanumber\n",
		"no-value":   "x\n",
		"duplicate":  "x 1\nx 2\n",
	} {
		if _, err := ParseSamples([]byte(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
