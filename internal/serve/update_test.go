package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// newUpdatableServer serves a small store whose summary initially lacks
// the site/item/mail path, so mail queries are unsatisfiable until an
// update introduces one.
func newUpdatableServer(t *testing.T, cfg Config) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	doc := xmltree.MustParseParen(
		`site(item(name "pen" price "3") item(name "ink" price "7"))`)
	views := []*core.View{
		{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
		{Name: "vprice", Pattern: pattern.MustParse(`site(/item[id](/price[v]))`), DerivableParentIDs: true},
		{Name: "vmail", Pattern: pattern.MustParse(`site(/item[id](/mail[v]))`), DerivableParentIDs: true},
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
	return ts, dir
}

func postUpdate(t *testing.T, ts *httptest.Server, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	return resp.StatusCode
}

func TestServeUpdateEndToEnd(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{PlanCacheSize: 8})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	var before QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &before); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(before.Rows) != 2 || before.Epoch != 0 {
		t.Fatalf("before: %d rows at epoch %d, want 2 at 0", len(before.Rows), before.Epoch)
	}

	var up UpdateResponse
	code := postUpdate(t, ts,
		`{"updates":[{"op":"insert","parent":"1","subtree":"item(name \"dry\" price \"2\")"}]}`, &up)
	if code != http.StatusOK {
		t.Fatalf("update status %d: %+v", code, up)
	}
	if up.Epoch != 1 || up.Applied != 1 {
		t.Fatalf("update response: %+v", up)
	}
	changed := map[string]view.ChangedView{}
	for _, c := range up.Changed {
		changed[c.Name] = c
	}
	if changed["vname"].Adds != 1 || changed["vprice"].Adds != 1 {
		t.Fatalf("expected one add in vname and vprice: %+v", up.Changed)
	}
	// vmail is *potentially* affected (an inserted item could carry mail
	// children) so it is checked, but its extent does not change.
	if _, ok := changed["vmail"]; ok {
		t.Fatalf("vmail extent should be unchanged: %+v", up.Changed)
	}

	// A settext on a price node maps to vprice only: vname and vmail are
	// proven unaffected and skipped without re-evaluation.
	var up2 UpdateResponse
	if code := postUpdate(t, ts,
		`[{"op":"settext","target":"1.1.3","value":"4"}]`, &up2); code != http.StatusOK {
		t.Fatalf("settext status %d: %+v", code, up2)
	}
	if len(up2.Changed) != 1 || up2.Changed[0].Name != "vprice" {
		t.Fatalf("settext changed = %+v, want vprice only", up2.Changed)
	}
	if up2.Skipped != 2 {
		t.Fatalf("settext skipped = %d, want 2 (vname, vmail)", up2.Skipped)
	}

	var after QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(after.Rows) != 3 || after.Epoch != 2 {
		t.Fatalf("after: %d rows at epoch %d, want 3 at 2", len(after.Rows), after.Epoch)
	}
	// Both updates keep the summary's shape (the insert is under existing
	// paths, with every edge flag unchanged; settext moves no path), so the
	// plan cache outlived both epochs and nothing was invalidated.
	if !after.PlanCached || after.Plan != before.Plan {
		t.Fatalf("plan cache dropped by shape-preserving commits: %+v", after)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Epoch != 2 || st.UpdatesApplied != 2 || st.CacheInvalidations != 0 {
		t.Fatalf("stats not epoch-aware: %+v", st)
	}
	if st.TuplesAdded < 2 {
		t.Fatalf("tuples_added = %d, want >= 2", st.TuplesAdded)
	}
}

// TestServeStaleVerdictInvalidated is the regression test for epoch-aware
// plan caching: a cached "unsatisfiable under the summary" verdict must
// not outlive an update that makes the query satisfiable.
func TestServeStaleVerdictInvalidated(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{PlanCacheSize: 8})
	q := url.QueryEscape(`site(/item[id](/mail[v]))`)

	var e errorResponse
	for i := 0; i < 2; i++ { // second round hits the cached negative
		if code := getJSON(t, ts.URL+"/query?q="+q, &e); code != http.StatusUnprocessableEntity {
			t.Fatalf("pre-update query: status %d, want 422 (%+v)", code, e)
		}
	}

	var up UpdateResponse
	if code := postUpdate(t, ts,
		`[{"op":"insert","parent":"1.1","subtree":"mail \"m1\""}]`, &up); code != http.StatusOK {
		t.Fatalf("update status %d: %+v", code, up)
	}

	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("post-update query: status %d (stale unsatisfiable verdict served?)", code)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1] != "m1" {
		t.Fatalf("post-update rows: %+v", resp.Rows)
	}
}

func TestServeUpdateErrors(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	var e errorResponse

	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d", resp.StatusCode)
	}

	if code := postUpdate(t, ts, `{"updates":[]}`, &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := postUpdate(t, ts, `not json`, &e); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", code)
	}
	if code := postUpdate(t, ts, `[{"op":"delete","target":"1.99"}]`, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("missing target: status %d (%+v)", code, e)
	}
	// A failed batch must not advance the epoch.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Epoch != 0 || st.UpdatesApplied != 0 {
		t.Fatalf("failed updates advanced the epoch: %+v", st)
	}

	rts, _ := newUpdatableServer(t, Config{ReadOnly: true})
	if code := postUpdate(t, rts, `[{"op":"delete","target":"1.1"}]`, &e); code != http.StatusForbidden {
		t.Fatalf("read-only server accepted update: status %d", code)
	}
}

func TestServeUpdateTooLarge(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{MaxUpdateBytes: 64})
	var e errorResponse
	big := `[{"op":"insert","parent":"1","subtree":"` + strings.Repeat("x", 200) + `"}]`
	if code := postUpdate(t, ts, big, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", code)
	}
}

// TestServeConcurrentQueriesAndUpdates hammers the daemon with parallel
// readers and a writer (run with -race): every answer must be internally
// consistent (all rows from one epoch's extents).
func TestServeConcurrentQueriesAndUpdates(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{PlanCacheSize: 8})
	q := url.QueryEscape(`site(/item[id](/name[v]))`)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r, err := http.Get(ts.URL + "/query?q=" + q)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query status %d: %s", r.StatusCode, body)
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					return
				}
				// 2 initial items plus one per applied batch so far.
				if len(resp.Rows) < 2 || len(resp.Rows) > 2+8 {
					errs <- fmt.Errorf("implausible row count %d", len(resp.Rows))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			body := fmt.Sprintf(`[{"op":"insert","parent":"1","subtree":"item(name \"n%d\" price \"1\")"}]`, i)
			r, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("update %d status %d: %s", i, r.StatusCode, data)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var final QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &final); code != http.StatusOK {
		t.Fatalf("final query status %d", code)
	}
	if len(final.Rows) != 10 || final.Epoch != 8 {
		t.Fatalf("final state: %d rows at epoch %d, want 10 at 8", len(final.Rows), final.Epoch)
	}
}

// TestServeDegradedOnPersistFailure: when a batch applies in memory but
// cannot be persisted (here: the store directory vanishes), the server
// must answer 500, keep serving the applied batch from memory, report
// degraded on /stats, and refuse further updates with 503 — never
// persisting a later batch over a hole in the delta chains.
func TestServeDegradedOnPersistFailure(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{})

	// First update succeeds and loads the persisted document.
	var up UpdateResponse
	if code := postUpdate(t, ts,
		`[{"op":"insert","parent":"1","subtree":"item(name \"a\" price \"1\")"}]`, &up); code != http.StatusOK {
		t.Fatalf("first update status %d", code)
	}
	// Nuke the directory out from under the server.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if code := postUpdate(t, ts,
		`[{"op":"insert","parent":"1","subtree":"item(name \"b\" price \"2\")"}]`, &e); code != http.StatusInternalServerError {
		t.Fatalf("persist-failing update status %d (%+v)", code, e)
	}

	// The batch is live in memory: 2 original + 2 inserted items.
	var resp QueryResponse
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(resp.Rows) != 4 || resp.Epoch != 2 {
		t.Fatalf("memory state not served: %d rows at epoch %d", len(resp.Rows), resp.Epoch)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if !st.Degraded {
		t.Fatalf("stats not degraded: %+v", st)
	}
	if code := postUpdate(t, ts,
		`[{"op":"settext","target":"1.1.1","value":"x"}]`, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded server accepted update: status %d", code)
	}
}
