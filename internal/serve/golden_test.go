package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"strconv"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// /query response bodies are pinned byte for byte: testdata/query.golden
// holds, per request, the full body a known-good server answered, with
// the two latency fields zeroed. Cells, row order, total_rows and the JSON
// encoding must all stay as they are. Regenerate only on purpose:
//
//	go test ./internal/serve -run TestQueryGolden -update
var update = flag.Bool("update", false, "rewrite testdata/query.golden from the current server")

const queryGoldenFile = "testdata/query.golden"

// benchCatalog is the benchmark's fixed view catalog (bench/setup.go).
var benchCatalog = []struct{ name, pattern string }{
	{"VITEM", `site(//item[id](/name[v]))`},
	{"VITEMLOC", `site(//item[id](/location[v]))`},
	{"VPERSON", `site(//person[id](/name[v]))`},
	{"VINCOME", `site(//person[id](?/profile(/income[v])))`},
	{"VOPEN", `site(//open_auction[id](/initial[v]))`},
	{"VBID", `site(//open_auction[id](n?/bidder[id](/increase[v])))`},
	{"VCLOSED", `site(//closed_auction[id](/price[v]))`},
}

// benchCatalogServer builds the benchmark's catalog over doc in a fresh
// directory and serves it in the default configuration.
func benchCatalogServer(t testing.TB, doc *xmltree.Document) *Server {
	t.Helper()
	dir := t.TempDir()
	var views []*core.View
	for _, d := range benchCatalog {
		views = append(views, &core.View{Name: d.name, Pattern: pattern.MustParse(d.pattern), DerivableParentIDs: true})
	}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// Queries of the benchmark's warm pool and cold shapes (bench/workload.go).
const (
	itemScanQ   = `site(//item[id](/name[v]))`
	personScanQ = `site(//person[id](/name[v]))`
	closedScanQ = `site(//closed_auction[id](/price[v]))`
	openJoinQ   = `site(//open_auction[id](/initial[v] n?/bidder[id](/increase[v])))`
	personJoinQ = `site(//person[id](/name[v] ?/profile(/income[v])))`
)

// goldenRequests lists the pinned /query targets: the warm pool's 13 slots
// as the benchmark sends them, then every distinct query — warm ones and
// the cold shapes with fixed constants — at the default window, a 50-row
// page from the middle of its result, and a count-only probe.
func goldenRequests(t *testing.T, h http.Handler, doc *xmltree.Document) []string {
	var itemName, personName string
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Label == "name" && n.Parent != nil {
			if n.Parent.Label == "item" && itemName == "" {
				itemName = n.Value
			}
			if n.Parent.Label == "person" && personName == "" {
				personName = n.Value
			}
		}
		return true
	})
	target := func(q string, limit, offset int) string {
		v := url.Values{"q": {q}}
		if limit >= 0 {
			v.Set("limit", strconv.Itoa(limit))
		}
		if offset > 0 {
			v.Set("offset", strconv.Itoa(offset))
		}
		return "/query?" + v.Encode()
	}
	warm := []struct {
		q             string
		limit, offset int
	}{
		{itemScanQ, -1, 0}, {personScanQ, -1, 0}, {closedScanQ, -1, 0},
		{`site(//item[id](/name[v]{v="gold pen"}))`, -1, 0},
		{`site(//open_auction[id](/initial[v]{v>10}))`, -1, 0},
		{openJoinQ, -1, 0}, {personJoinQ, -1, 0},
		{itemScanQ, 50, 0}, {itemScanQ, 50, 2950},
		{personScanQ, 50, 500}, {personScanQ, 50, 1500},
		{closedScanQ, 50, 450}, {itemScanQ, 0, 0},
	}
	var out []string
	var queries []string
	seen := map[string]bool{}
	for _, w := range warm {
		out = append(out, target(w.q, w.limit, w.offset))
		if !seen[w.q] {
			seen[w.q] = true
			queries = append(queries, w.q)
		}
	}
	queries = append(queries,
		`site(//closed_auction[id](/price[v]{v>40}))`,
		fmt.Sprintf(`site(//person[id](/name[v]{v=%q}))`, personName),
		fmt.Sprintf(`site(//item[id](/name[v]{v=%q}))`, itemName),
		fmt.Sprintf(`site(//person[id](/name[v]{v=%q} ?/profile(/income[v])))`, personName),
		`site(//open_auction[id](/initial[v]{v>20.5} n?/bidder[id](/increase[v])))`,
	)
	for _, q := range queries {
		total := queryTotal(t, h, q)
		out = append(out, target(q, -1, 0), target(q, 50, total/2), target(q, 0, 0))
	}
	return out
}

// queryTotal returns the full cardinality of q's answer.
func queryTotal(t *testing.T, h http.Handler, q string) int {
	t.Helper()
	var resp QueryResponse
	rec := serveGet(h, "/query?limit=0&q="+url.QueryEscape(q))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.TotalRows
}

func serveGet(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// latencyFields matches the two per-request timings of a response body.
var latencyFields = regexp.MustCompile(`"(rewrite_us|exec_us)":[0-9]+`)

// TestQueryGolden pins the /query bodies of the benchmark's query shapes
// over its catalog on XMark(50).
func TestQueryGolden(t *testing.T) {
	doc := datagen.XMark(50, 1)
	h := benchCatalogServer(t, doc).Handler()
	var got bytes.Buffer
	for _, target := range goldenRequests(t, h, doc) {
		rec := serveGet(h, target)
		body := latencyFields.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`))
		fmt.Fprintf(&got, "GET %s\n%d %s\n", target, rec.Code, body)
	}
	if *update {
		if err := os.WriteFile(queryGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(queryGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %.300s\nwant %.300s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("query bodies differ in length: %d lines, want %d", len(gl), len(wl))
	}
}
