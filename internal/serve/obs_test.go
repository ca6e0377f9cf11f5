package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlviews/internal/obs"
)

// runWorkload drives a scripted mix over a server: two identical queries
// (a miss then a cache hit), an explain, one update and one bad request,
// so every pipeline phase has observations.
func runWorkload(t *testing.T, ts *httptest.Server) {
	t.Helper()
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	for i := 0; i < 2; i++ {
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/query?q="+q, &qr); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var ex ExplainResponse
	if code := getJSON(t, ts.URL+"/query?explain=1&q="+q, &ex); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	var up UpdateResponse
	if code := postUpdate(t, ts,
		`{"updates":[{"op":"insert","parent":"1","subtree":"item(name \"dry\" price \"2\")"}]}`, &up); code != http.StatusOK {
		t.Fatalf("update: status %d: %+v", code, up)
	}
	var er errorResponse
	if code := getJSON(t, ts.URL+"/query?q=%28broken", &er); code != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", code)
	}
}

// metricsPage is one scrape of GET /metrics: every sample keyed by its
// series text, as obs.ParseSamples returns it.
type metricsPage map[string]float64

// scrape fetches and parses base's /metrics. It reports failure as an
// error rather than through a *testing.T, so reader goroutines can call it.
func scrape(base string) (metricsPage, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %s", resp.StatusCode, body)
	}
	return obs.ParseSamples(body)
}

// mustScrape is scrape on the test goroutine.
func mustScrape(t *testing.T, ts *httptest.Server) metricsPage {
	t.Helper()
	page, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// get returns series' value, failing t when the page lacks it, so a
// misspelt name cannot read as 0.
func (p metricsPage) get(t testing.TB, series string) float64 {
	t.Helper()
	v, ok := p[series]
	if !ok {
		t.Fatalf("/metrics has no series %s", series)
	}
	return v
}

// fatalRecorder is a testing.TB whose Fatalf only records the failure.
type fatalRecorder struct {
	testing.TB
	failed bool
}

func (r *fatalRecorder) Helper()               {}
func (r *fatalRecorder) Fatalf(string, ...any) { r.failed = true }

func TestMetricsPageGetRejectsMissingSeries(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	page := mustScrape(t, ts)
	if page.get(t, "xvserve_queries_total") != 0 {
		t.Fatal("queries before any query")
	}
	rec := &fatalRecorder{TB: t}
	page.get(rec, "xvserve_querys_total")
	if !rec.failed {
		t.Fatal("a misspelt series read as a value instead of failing")
	}
}

// expositionSamples checks a Prometheus text page's framing — every
// sample follows its family's # HELP and # TYPE lines, and every type is
// one the registry emits — and returns its samples.
func expositionSamples(t *testing.T, body []byte) metricsPage {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]bool{}
	for ln, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, fields[1])
			}
			if !helped[fields[0]] {
				t.Fatalf("line %d: TYPE for %s before its HELP", ln+1, fields[0])
			}
			typed[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		fam, _, _ := strings.Cut(line, " ")
		fam, _, _ = strings.Cut(fam, "{")
		// Histogram samples carry the family name plus a suffix.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
		if line != "" && !typed[fam] && !typed[base] {
			t.Fatalf("line %d: sample %s before (or without) its HELP/TYPE header", ln+1, fam)
		}
	}
	samples, err := obs.ParseSamples(body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestServeMetricsExposition(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{PlanCacheSize: 8})
	runWorkload(t, ts)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	samples := expositionSamples(t, body)
	// ParseHistograms re-validates bucket monotonicity and +Inf == _count
	// for every histogram family on the page.
	hists, err := obs.ParseHistograms(body)
	if err != nil {
		t.Fatalf("histograms do not parse: %v", err)
	}

	for _, want := range []struct {
		series string
		min    float64
	}{
		{`xvserve_queries_total`, 3}, // 2 executed + explain; the parse error never reached the pipeline
		{`xvserve_rewrites_run_total`, 1},
		{`xvserve_plan_cache_hits_total`, 2},
		{`xvserve_plan_cache_misses_total`, 1},
		{`xvserve_errors_total`, 1},
		{`xvserve_updates_applied_total`, 1},
		{`xvserve_tuples_added_total`, 2}, // name + price rows
		{`xvserve_http_requests_total{path="/query",code="200"}`, 3},
		{`xvserve_http_requests_total{path="/query",code="400"}`, 1},
		{`xvserve_http_requests_total{path="/update",code="200"}`, 1},
		{`xvserve_view_reads_total{view="vname"}`, 2},
		{`xvserve_epoch`, 1},
		{`go_goroutines`, 1},
	} {
		if got := samples.get(t, want.series); got < want.min {
			t.Errorf("%s = %v, want >= %v", want.series, got, want.min)
		}
	}
	// The latency sums are exact seconds: after real work they are > 0
	// even when every request was sub-millisecond.
	for _, series := range []string{"xvserve_rewrite_seconds_sum", "xvserve_maintain_seconds_sum"} {
		if got := samples.get(t, series); got <= 0 {
			t.Errorf("%s = %v, want > 0 (sub-ms work must not truncate away)", series, got)
		}
	}
	for _, h := range []struct {
		name string
		min  int64
	}{
		{"xvserve_rewrite_seconds", 3}, // miss + hit + explain
		{"xvserve_cost_seconds", 1},
		{"xvserve_snapshot_seconds", 3},
		{"xvserve_exec_seconds", 2},
		{"xvserve_encode_seconds", 2},
		{"xvserve_maintain_seconds", 1},
		{"xvserve_maintain_apply_seconds", 1},
		{"xvserve_maintain_persist_seconds", 1},
	} {
		snap, ok := hists[h.name]
		if !ok {
			t.Errorf("histogram %s missing from exposition", h.name)
			continue
		}
		if snap.Count < h.min {
			t.Errorf("%s count = %d, want >= %d", h.name, snap.Count, h.min)
		}
	}

	// The exposition is deterministic: a second scrape of quiesced state
	// must order families and series identically.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	order := func(b []byte) []string {
		var names []string
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				names = append(names, line)
			}
		}
		return names
	}
	o1, o2 := order(body), order(body2)
	if len(o1) != len(o2) {
		t.Fatalf("family count changed between scrapes: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("family order differs at %d: %q vs %q", i, o1[i], o2[i])
		}
	}

	// Every label value the workload and the error paths produce is a
	// declared one: nothing lands on the overflow series.
	var er errorResponse
	if code := getJSON(t, ts.URL+"/update", &er); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/query", &er); code != http.StatusBadRequest {
		t.Fatalf("query without q: status %d", code)
	}
	if code := postUpdate(t, ts, `{"updates":[]}`, &er); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := postUpdate(t, ts, `{"updates":[{"op":"settext","target":"1.99.1","value":"x"}]}`, &er); code != http.StatusUnprocessableEntity {
		t.Fatalf("unresolvable target: status %d", code)
	}
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	for series := range expositionSamples(t, body3) {
		if strings.Contains(series, `="`+obs.Overflow+`"`) {
			t.Errorf("undeclared label value counted: %s", series)
		}
	}
}

// metricFamilies is the golden /metrics surface: every family's # TYPE
// line. A family is added, renamed or retyped only by changing this list.
var metricFamilies = []string{
	"go_gc_cycles_total gauge",
	"go_gc_pause_seconds_total gauge",
	"go_goroutines gauge",
	"go_heap_alloc_bytes gauge",
	"go_heap_objects gauge",
	"go_sys_bytes gauge",
	"xvserve_cache_invalidations_total counter",
	"xvserve_client_disconnects_total counter",
	"xvserve_commit_group_size histogram",
	"xvserve_commit_queue_depth gauge",
	"xvserve_commit_queue_wait_seconds histogram",
	"xvserve_cost_seconds histogram",
	"xvserve_degraded gauge",
	"xvserve_doc_checkpoint_errors_total counter",
	"xvserve_doc_checkpoint_seconds histogram",
	"xvserve_doc_checkpoints_total counter",
	"xvserve_doc_epoch gauge",
	"xvserve_durable_epoch gauge",
	"xvserve_encode_seconds histogram",
	"xvserve_epoch gauge",
	"xvserve_errors_total counter",
	"xvserve_exec_seconds histogram",
	"xvserve_group_commits_total counter",
	"xvserve_http_requests_total counter",
	"xvserve_maintain_apply_seconds histogram",
	"xvserve_maintain_persist_seconds histogram",
	"xvserve_maintain_seconds histogram",
	"xvserve_plan_cache_entries gauge",
	"xvserve_plan_cache_hits_total counter",
	"xvserve_plan_cache_misses_total counter",
	"xvserve_queries_total counter",
	"xvserve_rewrite_seconds histogram",
	"xvserve_rewrites_run_total counter",
	"xvserve_search_exhausted_total counter",
	"xvserve_rows_served_total counter",
	"xvserve_snapshot_seconds histogram",
	"xvserve_store_versions gauge",
	"xvserve_subsume_cache_entries gauge",
	"xvserve_tuples_added_total counter",
	"xvserve_tuples_deleted_total counter",
	"xvserve_update_log_bytes gauge",
	"xvserve_update_log_records gauge",
	"xvserve_updates_applied_total counter",
	"xvserve_uptime_seconds gauge",
	"xvserve_vec_blocks_scanned_total counter",
	"xvserve_vec_blocks_skipped_total counter",
	"xvserve_vec_kernels_total counter",
	"xvserve_view_reads_total counter",
	"xvserve_views gauge",
}

// TestMetricFamiliesPinned checks the /metrics family set against
// metricFamilies in both directions, before and after traffic: families
// are registered once, at New, and none appears or vanishes with use.
func TestMetricFamiliesPinned(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	check := func(when string) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, line := range strings.Split(string(body), "\n") {
			if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
				got[typ] = true
			}
		}
		for _, f := range metricFamilies {
			if !got[f] {
				t.Errorf("%s: /metrics lost family %q", when, f)
			}
			delete(got, f)
		}
		for f := range got {
			t.Errorf("%s: /metrics grew unpinned family %q", when, f)
		}
	}
	check("before traffic")
	runWorkload(t, ts)
	check("after traffic")
}

func TestServeRequestID(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	// Absent header: the server generates an id and returns it.
	resp, err := http.Get(ts.URL + "/query?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-Id")
	if !obs.ValidRequestID(gen) {
		t.Fatalf("generated X-Request-Id %q not valid", gen)
	}

	// Valid client id: echoed on the response and in error bodies.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?q=%28broken", nil)
	req.Header.Set("X-Request-Id", "client-id-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-1" {
		t.Fatalf("echoed id = %q, want client-id-1", got)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "client-id-1" {
		t.Fatalf("error body request_id = %q, want client-id-1", er.RequestID)
	}
	if er.Error == "" {
		t.Fatal("error body lost its message")
	}

	// Invalid client id (embedded space): replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "bad id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "bad id" || !obs.ValidRequestID(got) {
		t.Fatalf("invalid client id must be replaced; got %q", got)
	}
}

func TestServeTraceInResponse(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	var plain QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &plain); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if plain.Trace != nil {
		t.Fatal("trace must be opt-in on /query")
	}

	var traced QueryResponse
	if code := getJSON(t, ts.URL+"/query?trace=1&q="+q, &traced); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if traced.Trace == nil || !obs.ValidRequestID(traced.Trace.RequestID) {
		t.Fatalf("trace=1 response carries no trace: %+v", traced.Trace)
	}
	names := map[string]bool{}
	for _, sp := range traced.Trace.Spans {
		names[sp.Name] = true
		if sp.Dur < 0 || sp.Start < 0 {
			t.Fatalf("span %q has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, want := range []string{"snapshot", "rewrite", "execute", "encode"} {
		if !names[want] {
			t.Errorf("trace lacks %q span; got %v", want, traced.Trace.Spans)
		}
	}

	var ex ExplainResponse
	if code := getJSON(t, ts.URL+"/query?explain=1&q="+q, &ex); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ex.Trace == nil || len(ex.Trace.Spans) == 0 {
		t.Fatal("explain must always carry the trace")
	}

	var up UpdateResponse
	if code := postUpdate(t, ts,
		`{"updates":[{"op":"insert","parent":"1","subtree":"item(name \"dry\")"}]}`, &up); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	// The update's pipeline spans land in the debug ring.
	var recs []obs.TraceRecord
	if code := getJSON(t, ts.URL+"/debug/traces", &recs); code != http.StatusOK {
		t.Fatalf("debug/traces status %d", code)
	}
	var updRec *obs.TraceRecord
	for i := range recs {
		if recs[i].Path == "/update" {
			updRec = &recs[i]
			break
		}
	}
	if updRec == nil {
		t.Fatalf("no /update record in ring: %+v", recs)
	}
	spanNames := map[string]bool{}
	for _, sp := range updRec.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"apply", "persist", "catalog", "maintain"} {
		if !spanNames[want] {
			t.Errorf("update trace lacks %q span; got %+v", want, updRec.Spans)
		}
	}
}

// syncBuffer makes a bytes.Buffer safe for the handler goroutines that
// write log lines while the test reads them.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestServeSlowQueryLog(t *testing.T) {
	buf := &syncBuffer{}
	ts, _ := newUpdatableServer(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    slog.New(slog.NewJSONHandler(buf, nil)),
	})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	var qr QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &qr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow query must produce exactly one log line, got %d:\n%s", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, lines[0])
	}
	id, _ := entry["request_id"].(string)
	if !obs.ValidRequestID(id) {
		t.Fatalf("log line carries no request id: %v", entry)
	}
	if entry["path"] != "/query" || entry["msg"] != "slow request" {
		t.Fatalf("unexpected log entry: %v", entry)
	}
	if entry["query"] != `site(/item[id](/name[v]))` {
		t.Fatalf("log line lost the query text: %v", entry)
	}
	if _, ok := entry["plan"]; !ok {
		t.Fatalf("log line lost the plan: %v", entry)
	}
	if _, ok := entry["spans"].([]any); !ok {
		t.Fatalf("log line lost the span timings: %v", entry)
	}

	// The same request id must be findable in /debug/traces.
	var recs []obs.TraceRecord
	if code := getJSON(t, ts.URL+"/debug/traces", &recs); code != http.StatusOK {
		t.Fatalf("debug/traces status %d", code)
	}
	found := false
	for _, rec := range recs {
		if rec.ID == id {
			found = true
			if rec.Path != "/query" || rec.Status != http.StatusOK {
				t.Fatalf("ring record mismatch: %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("logged request id %s not in /debug/traces: %+v", id, recs)
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	_, storeDir := newUpdatableServer(t, Config{})
	srv, err := New(Config{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dts := httptest.NewServer(srv.DebugHandler())
	defer dts.Close()

	for path, want := range map[string]string{
		"/debug/pprof/":       "text/html",
		"/debug/pprof/symbol": "text/plain",
		"/metrics":            "text/plain",
		"/debug/traces":       "application/json",
	} {
		resp, err := http.Get(dts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, want) {
			t.Errorf("%s: content type %q, want prefix %q", path, ct, want)
		}
	}
}

// TestServeMetricsConcurrent hammers /metrics while queries and updates
// run, so the race detector sees scrapes concurrent with observations.
func TestServeMetricsConcurrent(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{SlowQuery: time.Nanosecond,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/query?trace=1&q=" + q)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			body := fmt.Sprintf(`{"updates":[{"op":"insert","parent":"1","subtree":"item(name \"n%d\")"}]}`, j)
			resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				for _, p := range []string{"/metrics", "/debug/traces"} {
					resp, err := http.Get(ts.URL + p)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
}
