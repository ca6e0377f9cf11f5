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
	"strconv"
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

// expositionSamples parses a Prometheus text page line by line, failing
// the test when a sample appears before its family's # HELP and # TYPE
// lines or a line does not scan. It returns every sample keyed by its
// full series text (name plus label set).
func expositionSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]bool{}
	samples := map[string]float64{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
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
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: sample value %q does not parse: %v", ln+1, valStr, err)
		}
		fam := series
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if !typed[fam] {
			// Histogram samples carry the family name plus a suffix.
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam,
				"_bucket"), "_sum"), "_count")
			if !typed[base] {
				t.Fatalf("line %d: sample %s before (or without) its HELP/TYPE header", ln+1, series)
			}
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, series)
		}
		samples[series] = v
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

	samples := expositionSamples(t, string(body))
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
		if got := samples[want.series]; got < want.min {
			t.Errorf("%s = %v, want >= %v", want.series, got, want.min)
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
}

// statsFields is the golden /stats schema: the exact JSON field set the
// endpoint has always served. New observability data goes to /metrics;
// this list only changes when the /stats contract deliberately does.
var statsFields = []string{
	"uptime_seconds", "views", "epoch", "degraded",
	"queries", "rewrites_run", "client_disconnects", "errors", "rows_served",
	"plan_cache_hits", "plan_cache_misses", "plan_cache_size", "plan_hit_rate",
	"subsume_cache_entries", "rewrite_ms_total", "exec_ms_total",
	"updates_applied", "tuples_added", "tuples_deleted", "cache_invalidations",
	"maintain_ms_total", "max_delta_chain", "delta_bytes",
	"compactions_run", "delta_segments_folded", "compact_bytes_reclaimed",
	"compact_errors",
	// The durability contract (docs/concurrency.md): how far the disk is
	// behind memory and how much log a restart replays.
	"durable_epoch", "doc_epoch", "update_log_records", "update_log_bytes",
}

func TestServeStatsFieldIdentity(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{PlanCacheSize: 8})
	runWorkload(t, ts)

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, f := range statsFields {
		if _, ok := stats[f]; !ok {
			t.Errorf("/stats lost field %q", f)
		}
	}
	for k := range stats {
		found := false
		for _, f := range statsFields {
			if k == f {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/stats grew unexpected field %q (new data belongs on /metrics)", k)
		}
	}

	// /stats and /metrics are views of the same registry: shared counters
	// must agree exactly.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := expositionSamples(t, string(body))
	for stat, series := range map[string]string{
		"queries":         "xvserve_queries_total",
		"rewrites_run":    "xvserve_rewrites_run_total",
		"updates_applied": "xvserve_updates_applied_total",
		"tuples_added":    "xvserve_tuples_added_total",
	} {
		if stats[stat] != samples[series] { // both float64 after JSON decoding
			t.Errorf("%s: /stats says %v, /metrics says %v", stat, stats[stat], samples[series])
		}
	}

	// The latency totals are fractional milliseconds now: after real work
	// they must be > 0 even when every request was sub-millisecond.
	if v, ok := stats["rewrite_ms_total"].(float64); !ok || v <= 0 {
		t.Errorf("rewrite_ms_total = %v, want > 0 (sub-ms work must not truncate away)", stats["rewrite_ms_total"])
	}
	if v, ok := stats["maintain_ms_total"].(float64); !ok || v <= 0 {
		t.Errorf("maintain_ms_total = %v, want > 0", stats["maintain_ms_total"])
	}
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
				for _, p := range []string{"/metrics", "/stats", "/debug/traces"} {
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
