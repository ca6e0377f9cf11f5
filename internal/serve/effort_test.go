package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"xmlviews/internal/datagen"
)

// TestColdQueryAllocCeiling bounds the work one cold /query does in the
// daemon's default configuration over the benchmark's catalog. The
// rewriting search is almost all of it, and it used to be the speculative
// level-parallel engine's: ~95 MB for this query, against ~24 MB for the
// one left-deep search that replaced it, ~9 MB once canonical keys
// rendered into one buffer and slot edits shared the tree's nodes, and
// ~1.2 MB since canonical trees imply the strong-edge closure instead of
// holding ~100 nodes each. The ceiling is about twice the current figure.
func TestColdQueryAllocCeiling(t *testing.T) {
	srv := benchCatalogServer(t, datagen.XMark(50, 1))

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
	const ceilingMB = 2.5
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > ceilingMB {
		t.Fatalf("cold /query allocated %.1f MB, ceiling %.1f MB", mb, ceilingMB)
	} else {
		t.Logf("cold /query allocated %.1f MB (ceiling %.1f MB)", mb, ceilingMB)
	}
}

// warmTargets are /query requests of the benchmark's warm pool
// (bench/workload.go) over its catalog on XMark(1000): the item scan in
// full, a page of it at a middle offset and its count-only probe, and the
// two joins.
var warmTargets = []struct{ name, target string }{
	{"item-full", "/query?q=" + url.QueryEscape(itemScanQ)},
	{"item-page", "/query?limit=50&offset=2950&q=" + url.QueryEscape(itemScanQ)},
	{"item-count", "/query?limit=0&q=" + url.QueryEscape(itemScanQ)},
	{"open-join", "/query?q=" + url.QueryEscape(openJoinQ)},
	{"person-join", "/query?q=" + url.QueryEscape(personJoinQ)},
}

// warmQueryCost serves target once to cache its plan, then returns the
// bytes and allocations of one more, warm, request.
func warmQueryCost(t testing.TB, h http.Handler, target string) (mb float64, allocs uint64) {
	t.Helper()
	if rec := serveGet(h, target); rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := serveGet(h, target)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.Mallocs - before.Mallocs
}

// TestWarmQueryAllocCeiling bounds what one warm /query allocates over the
// benchmark's catalog and document: the plan is cached, so this is the
// executor and the response encoding alone. Rendering every value into a
// string of its own, twice, used to cost the full item scan 5.2 MB in
// ~83k allocations, and its count-only probe 3.5 MB in ~60k; since each
// row renders once into one shared buffer they cost 1.3–2 and ~0.6 MB in
// ~200 allocations each. The ceilings are about twice that.
func TestWarmQueryAllocCeiling(t *testing.T) {
	h := benchCatalogServer(t, datagen.XMark(1000, 1)).Handler()
	ceilings := map[string]struct {
		mb     float64
		allocs uint64
	}{
		"item-full":  {2.6, 500},
		"item-page":  {1.2, 500},
		"item-count": {1.2, 500},
	}
	for _, w := range warmTargets[:3] {
		mb, allocs := warmQueryCost(t, h, w.target)
		c := ceilings[w.name]
		if mb > c.mb || allocs > c.allocs {
			t.Errorf("%s: warm /query allocated %.2f MB in %d allocations, ceiling %.1f MB in %d", w.name, mb, allocs, c.mb, c.allocs)
		} else {
			t.Logf("%s: %.2f MB in %d allocations (ceiling %.1f MB in %d)", w.name, mb, allocs, c.mb, c.allocs)
		}
	}
}

// BenchmarkWarmQuery measures warm /query requests of the benchmark's pool
// end to end through the handler; run it with -benchmem.
func BenchmarkWarmQuery(b *testing.B) {
	h := benchCatalogServer(b, datagen.XMark(1000, 1)).Handler()
	for _, w := range warmTargets {
		b.Run(w.name, func(b *testing.B) {
			serveGet(h, w.target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := serveGet(h, w.target); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}
