package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
)

// TestColdQueryAllocCeiling bounds the work one cold /query does in the
// daemon's default configuration over the benchmark's catalog. The
// rewriting search is almost all of it, and it used to be the speculative
// level-parallel engine's: ~95 MB for this query, against ~24 MB for the
// one left-deep search that replaced it, and ~9 MB since canonical keys
// render into one buffer and slot edits share the tree's nodes. The
// ceiling is about twice the current figure.
func TestColdQueryAllocCeiling(t *testing.T) {
	dir := t.TempDir()
	var views []*core.View
	for _, d := range []struct{ name, pattern string }{
		{"VITEM", `site(//item[id](/name[v]))`},
		{"VITEMLOC", `site(//item[id](/location[v]))`},
		{"VPERSON", `site(//person[id](/name[v]))`},
		{"VINCOME", `site(//person[id](?/profile(/income[v])))`},
		{"VOPEN", `site(//open_auction[id](/initial[v]))`},
		{"VBID", `site(//open_auction[id](n?/bidder[id](/increase[v])))`},
		{"VCLOSED", `site(//closed_auction[id](/price[v]))`},
	} {
		views = append(views, &core.View{Name: d.name, Pattern: pattern.MustParse(d.pattern), DerivableParentIDs: true})
	}
	if _, err := view.BuildStore(dir, datagen.XMark(50, 1), views); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := httptest.NewRequest(http.MethodGet,
		"/query?limit=20&q="+url.QueryEscape(`site(//item[id](/name[v]{v="x"}))`), nil)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	const ceilingMB = 20
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > ceilingMB {
		t.Fatalf("cold /query allocated %.1f MB, ceiling %d MB", mb, ceilingMB)
	} else {
		t.Logf("cold /query allocated %.1f MB (ceiling %d MB)", mb, ceilingMB)
	}
}
