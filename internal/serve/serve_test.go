package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// newTestServer builds a store directory from a small document and serves
// it. Views cover the query both exactly and via an ID join.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	doc := xmltree.MustParseParen(
		`site(item(name "pen" price "3" mail "m1") item(name "ink" price "7") item(name "dry" price "2"))`)
	views := []*core.View{
		{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
		{Name: "vprice", Pattern: pattern.MustParse(`site(/item[id](/price[v]))`), DerivableParentIDs: true},
	}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir, PlanCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return resp.StatusCode
}

func TestServeQueryAndPlanCache(t *testing.T) {
	ts := newTestServer(t)
	q := url.QueryEscape(`site(/item[id](/name[v] /price[v]))`)

	var first QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &first); code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, first)
	}
	if first.PlanCached {
		t.Fatal("first query cannot be a plan-cache hit")
	}
	if len(first.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(first.Rows), first.Rows)
	}

	var second QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.PlanCached {
		t.Fatal("repeated query must hit the plan cache")
	}
	if second.Plan != first.Plan || len(second.Rows) != len(first.Rows) {
		t.Fatal("cached plan answered differently")
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.PlanCacheHits < 1 || st.PlanCacheMisses < 1 || st.Queries < 2 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.Views != 2 || st.PlanCacheSize != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestServeExecPath pins the execution-path reporting: every /query answer
// names the path it ran ("vectorized" or "row"), and once a plan has
// executed, explain reports that plan's most recent path.
func TestServeExecPath(t *testing.T) {
	ts := newTestServer(t)
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	var ex ExplainResponse
	if code := getJSON(t, ts.URL+"/query?explain=1&q="+q, &ex); code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if ex.LastExecPath != "" {
		t.Fatalf("unexecuted plan reports last_exec_path %q", ex.LastExecPath)
	}

	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.ExecPath != "vectorized" && resp.ExecPath != "row" {
		t.Fatalf("exec_path = %q, want vectorized or row", resp.ExecPath)
	}

	if code := getJSON(t, ts.URL+"/query?explain=1&q="+q, &ex); code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if ex.LastExecPath != resp.ExecPath {
		t.Fatalf("last_exec_path = %q, want %q", ex.LastExecPath, resp.ExecPath)
	}
}

// TestServeLimitWindow pins the limit parameter's semantics: rows come in
// the order of their rendered text, every window is the matching slice of
// the unwindowed answer, and an explicit limit=0 is a count-only probe —
// the row window stays empty while TotalRows still reports the full
// cardinality.
func TestServeLimitWindow(t *testing.T) {
	ts := newTestServer(t)
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	var all QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &all); code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, all)
	}
	if len(all.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(all.Rows), all.Rows)
	}
	for i := 1; i < len(all.Rows); i++ {
		if strings.Join(all.Rows[i-1], " | ") > strings.Join(all.Rows[i], " | ") {
			t.Fatalf("rows out of rendered order: %q", all.Rows)
		}
	}
	cases := []struct {
		name     string
		params   string
		from, to int // the window as a slice of the unwindowed rows
	}{
		{"absent limit serves everything", "", 0, 3},
		{"explicit limit=0 is a count-only probe", "&limit=0", 0, 0},
		{"small limit windows the result", "&limit=2", 0, 2},
		{"limit past the cap clamps, not errors", "&limit=999999", 0, 3},
		{"offset pages within the window", "&limit=2&offset=2", 2, 3},
		{"offset past the end serves nothing", "&limit=2&offset=7", 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp QueryResponse
			if code := getJSON(t, ts.URL+"/query?q="+q+tc.params, &resp); code != http.StatusOK {
				t.Fatalf("status %d: %+v", code, resp)
			}
			if want := all.Rows[tc.from:tc.to]; !reflect.DeepEqual(resp.Rows, want) {
				t.Fatalf("rows = %q, want %q", resp.Rows, want)
			}
			if resp.TotalRows != 3 || resp.Offset != tc.from {
				t.Fatalf("total_rows, offset = %d, %d, want 3, %d", resp.TotalRows, resp.Offset, tc.from)
			}
		})
	}
}

func TestServeXQuery(t *testing.T) {
	ts := newTestServer(t)
	xq := url.QueryEscape(`for $x in doc("d.xml")/item return <r> {$x/name/text()} </r>`)
	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/query?xq="+xq, &resp); code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, resp)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (%+v)", len(resp.Rows), resp)
	}
}

func TestServeErrors(t *testing.T) {
	ts := newTestServer(t)
	var e errorResponse
	if code := getJSON(t, ts.URL+"/query", &e); code != http.StatusBadRequest {
		t.Fatalf("missing query: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/query?q=%28broken", &e); code != http.StatusBadRequest {
		t.Fatalf("parse error: status %d", code)
	}
	// A satisfiable query no stored view covers: clean 422, and the
	// negative result is cached.
	q := url.QueryEscape(`site(/item[id](/mail[v]))`)
	for i := 0; i < 2; i++ {
		if code := getJSON(t, ts.URL+"/query?q="+q, &e); code != http.StatusUnprocessableEntity {
			t.Fatalf("unanswerable query: status %d (%+v)", code, e)
		}
	}
	// A query unsatisfiable under the summary: also a client error.
	q = url.QueryEscape(`site(/nosuchlabel[id])`)
	if code := getJSON(t, ts.URL+"/query?q="+q, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("unsatisfiable query: status %d (%+v)", code, e)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.PlanCacheHits < 1 {
		t.Fatalf("negative rewriting not cached: %+v", st)
	}
}

func TestServeHealthz(t *testing.T) {
	ts := newTestServer(t)
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body: %v", h)
	}
}

// TestServeConcurrentQueries exercises the whole daemon path from many
// goroutines (run with -race): mixed queries share the plan cache, the
// subsume cache and the view store.
func TestServeConcurrentQueries(t *testing.T) {
	ts := newTestServer(t)
	queries := []string{
		`site(/item[id](/name[v]))`,
		`site(/item[id](/price[v]))`,
		`site(/item[id](/name[v] /price[v]))`,
	}
	wantRows := 3
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				var resp QueryResponse
				r, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d for %s: %s", r.StatusCode, q, body)
					return
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					return
				}
				if len(resp.Rows) != wantRows {
					errs <- fmt.Errorf("%s: got %d rows, want %d", q, len(resp.Rows), wantRows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	// First encounters of each query may miss concurrently (up to one per
	// goroutine per query shape); everything else must hit the plan cache.
	minHits := int64(48 - 8*len(queries))
	if st.Queries != 48 || st.PlanCacheHits < minHits || st.PlanCacheHits+st.PlanCacheMisses != 48 {
		t.Fatalf("stats after concurrent run: %+v", st)
	}
	if st.PlanCacheSize != len(queries) {
		t.Fatalf("plan cache size = %d, want %d", st.PlanCacheSize, len(queries))
	}
}
