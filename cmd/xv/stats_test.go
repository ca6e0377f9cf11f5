package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/obs"
	"xmlviews/internal/pattern"
	"xmlviews/internal/serve"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// statsDaemon serves a small store over HTTP, the way a live xvserve
// would, and runs one query so the metrics are non-trivial.
func statsDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	views := []*core.View{{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true}}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/query?q=" + "site(/item[id](/name[v]))")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up query status %d", resp.StatusCode)
	}
	// One update, so the group-commit instruments are non-trivial too.
	ur, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`[{"op":"insert","parent":"1","subtree":"item(name \"pad\")"}]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ur.Body)
	ur.Body.Close()
	if ur.StatusCode != http.StatusOK {
		t.Fatalf("warm-up update status %d", ur.StatusCode)
	}
	return ts
}

func TestStatsSummary(t *testing.T) {
	ts := statsDaemon(t)
	// A second run of the warm-up query is a plan-cache hit: one hit in two
	// lookups.
	resp, err := http.Get(ts.URL + "/query?q=" + "site(/item[id](/name[v]))")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var out strings.Builder
	if err := run([]string{"stats", "-addr", ts.URL}, nil, &out); err != nil {
		t.Fatalf("stats: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"xvserve_queries_total: 2\n",
		"xvserve_plan_cache_misses_total: 1\n",
		"xvserve_epoch: 1\n",
		"xvserve_rewrite_seconds_sum: ",
		"plan hit rate: 0.500\n",
		"phase latencies",
		"rewrite",
		"commit/queue-wait",
		"p50=",
		"p99=",
		"commit groups: n=1 size p50=1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output lacks %q:\n%s", want, got)
		}
	}
}

func TestStatsRawMetrics(t *testing.T) {
	ts := statsDaemon(t)
	var out strings.Builder
	// The bare host:port form (no scheme) must work too.
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := run([]string{"stats", "-addr", addr, "-metrics"}, nil, &out); err != nil {
		t.Fatalf("stats -metrics: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"# HELP xvserve_queries_total",
		"# TYPE xvserve_rewrite_seconds histogram",
		`xvserve_rewrite_seconds_bucket{le="+Inf"} 1`,
		"xvserve_queries_total 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q:\n%s", want, got)
		}
	}
}

func TestQuantileStringOverflow(t *testing.T) {
	// Nine of ten observations land past the largest finite bound (10s):
	// the p99 is unknown, so the summary must render it as a lower bound
	// (">10s"), not claim p99=10s.
	h := obs.HistogramSnapshot{Uppers: []float64{1, 10}, Counts: []int64{1, 0, 9}, Count: 10}
	if got := quantileString(h, 0.99); got != ">10s" {
		t.Fatalf("overflow p99 = %q, want \">10s\"", got)
	}
	if got := quantileString(h, 0.1); got != "1s" {
		t.Fatalf("in-range p10 = %q, want \"1s\"", got)
	}
}

func TestStatsUnreachable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"stats", "-addr", "127.0.0.1:1"}, nil, &out); err == nil {
		t.Fatal("unreachable daemon not reported")
	}
}
