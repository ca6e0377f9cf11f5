package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// BenchmarkGroupCommit measures end-to-end /update throughput as writer
// concurrency grows. Under group commit the per-request cost amortizes —
// one summary clone, one diff/splice, one fsync per group — so ops/sec
// should scale with writers instead of staying pinned at 1/commit-latency.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			doc := xmltree.MustParseParen(`site(item(name "n0" price "1"))`)
			views := []*core.View{
				{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
				{Name: "vprice", Pattern: pattern.MustParse(`site(//price[id,v])`), DerivableParentIDs: true},
			}
			if _, err := view.BuildStore(dir, doc, views); err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Dir: dir, PlanCacheSize: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			work := make(chan int)
			var wg sync.WaitGroup
			var failed sync.Once
			var benchErr error
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						body := fmt.Sprintf(`[{"op":"settext","target":"1.1.3","value":"%d"}]`, i)
						resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
						if err != nil {
							failed.Do(func() { benchErr = err })
							return
						}
						data, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							failed.Do(func() {
								benchErr = fmt.Errorf("update %d: status %d: %s", i, resp.StatusCode, data)
							})
							return
						}
					}
				}()
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
}
