package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// newCostServer is newTestServer but returning the Server too, for tests
// that poke at internals (counters, direct handler calls).
func newCostServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	doc := xmltree.MustParseParen(
		`site(item(name "pen" price "3") item(name "ink" price "7") item(name "dry" price "2"))`)
	views := []*core.View{
		{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
		{Name: "vprice", Pattern: pattern.MustParse(`site(/item[id](/price[v]))`), DerivableParentIDs: true},
	}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestServeExplain(t *testing.T) {
	_, ts := newCostServer(t, Config{})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	resp, err := http.Get(ts.URL + "/query?q=" + q + "&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Shape: the documented fields must be present, and no rows.
	var shape map[string]json.RawMessage
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	for _, field := range []string{"query", "plan", "cost", "alternatives", "plan_cached", "epoch", "rewrite_us"} {
		if _, ok := shape[field]; !ok {
			t.Errorf("explain response lacks %q: %s", field, body)
		}
	}
	if _, ok := shape["rows"]; ok {
		t.Errorf("explain response must not execute/render rows: %s", body)
	}
	var er ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Plan == "" || er.Alternatives < 1 || er.Cost <= 0 {
		t.Fatalf("explain content wrong: %+v", er)
	}

	// The explain verdict is the cached plan: the follow-up executing query
	// hits the cache and runs the same plan.
	var qr QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &qr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !qr.PlanCached || qr.Plan != er.Plan || qr.Cost != er.Cost || qr.Alternatives != er.Alternatives {
		t.Fatalf("executed query disagrees with explain: %+v vs %+v", qr, er)
	}
}

func TestServeLimitOffset(t *testing.T) {
	_, ts := newCostServer(t, Config{})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	var full QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &full); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if full.TotalRows != 3 || len(full.Rows) != 3 || full.Offset != 0 {
		t.Fatalf("full response wrong: total=%d rows=%d offset=%d", full.TotalRows, len(full.Rows), full.Offset)
	}

	var win QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q+"&limit=1&offset=1", &win); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if win.TotalRows != 3 || len(win.Rows) != 1 || win.Offset != 1 {
		t.Fatalf("window wrong: total=%d rows=%d offset=%d", win.TotalRows, len(win.Rows), win.Offset)
	}
	if win.Rows[0][0] != full.Rows[1][0] {
		t.Fatalf("offset window returned %v, want %v", win.Rows[0], full.Rows[1])
	}

	// Offset past the end: empty window, same total.
	var past QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q+"&offset=99", &past); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if past.TotalRows != 3 || len(past.Rows) != 0 {
		t.Fatalf("past-the-end window wrong: total=%d rows=%d", past.TotalRows, len(past.Rows))
	}

	// Bad parameters are client errors.
	var er errorResponse
	if code := getJSON(t, ts.URL+"/query?q="+q+"&limit=-1", &er); code != http.StatusBadRequest {
		t.Fatalf("negative limit: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/query?q="+q+"&offset=x", &er); code != http.StatusBadRequest {
		t.Fatalf("bad offset: status %d, want 400", code)
	}
}

func TestServeDefaultResponseCap(t *testing.T) {
	_, ts := newCostServer(t, Config{MaxResponseRows: 2})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	var qr QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &qr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.TotalRows != 3 || len(qr.Rows) != 2 {
		t.Fatalf("capped response wrong: total=%d rows=%d", qr.TotalRows, len(qr.Rows))
	}
	// An explicit limit above the cap is clamped to it.
	var big QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q+"&limit=100", &big); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(big.Rows) != 2 {
		t.Fatalf("limit above cap must clamp: rows=%d", len(big.Rows))
	}
}

// TestServeSingleflight fires many concurrent requests for one cold query
// and checks that only a single rewriting search ran.
func TestServeSingleflight(t *testing.T) {
	srv, ts := newCostServer(t, Config{})
	q := url.QueryEscape(`site(/item[id](/name[v] /price[v]))`)

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?q=" + q)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- io.EOF
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
	if got := srv.met.rewritesRun.Value(); got != 1 {
		t.Fatalf("rewrites run = %d, want 1 (singleflight must collapse the stampede)", got)
	}
	if got := srv.met.queries.Value(); got != clients {
		t.Fatalf("queries = %d, want %d", got, clients)
	}
	// Only the leader is a plan-cache miss; followers obtained the shared
	// verdict without a search and count as hits.
	if got := srv.met.planMisses.Value(); got != 1 {
		t.Fatalf("plan-cache misses = %d, want 1", got)
	}
	if got := srv.met.planHits.Value(); got != clients-1 {
		t.Fatalf("plan-cache hits = %d, want %d", got, clients-1)
	}
}

// TestCachedPlanServedIdentically pins the plan cache's sharing contract:
// every hit on a key shares one plan tree, so no request may change it.
// Eight concurrent hits must answer with the first response's plan text
// and cost, and the first explain body, byte for byte (the explain body's
// rewrite time and trace are per-request and left out).
func TestCachedPlanServedIdentically(t *testing.T) {
	_, ts := newCostServer(t, Config{})
	q := ts.URL + "/query?q=" + url.QueryEscape(`site(/item[id](/name[v] /price[v]))`)
	fields := func(u string) (map[string]json.RawMessage, error) {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, m["error"])
		}
		delete(m, "rewrite_us")
		delete(m, "trace")
		return m, nil
	}
	first, err := fields(q)
	if err != nil {
		t.Fatal(err)
	}
	firstExplain, err := fields(q + "&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fields(q)
			if err != nil {
				t.Error(err)
				return
			}
			for _, k := range []string{"plan", "cost"} {
				if !bytes.Equal(got[k], first[k]) {
					t.Errorf("%s %s, first response %s", k, got[k], first[k])
				}
			}
			explain, err := fields(q + "&explain=1")
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(explain, firstExplain) {
				t.Errorf("explain body %v, first %v", explain, firstExplain)
			}
		}()
	}
	wg.Wait()
}

// TestServeClientGone exercises the 499 path: a request whose context is
// already cancelled must not produce a plan, burn the search, or be cached.
func TestServeClientGone(t *testing.T) {
	srv, _ := newCostServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(`site(/item[id](/name[v]))`), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body.String())
	}

	// The aborted search must not have poisoned the plan cache: a live
	// request succeeds and runs its own search.
	req2 := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(`site(/item[id](/name[v]))`), nil)
	rec2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", rec2.Code, rec2.Body.String())
	}
}
