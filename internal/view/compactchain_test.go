package view_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// chainFixture is an updatable XMark store over the benchmark harness's
// seven views (bench/setup.go), with a writer that grows its delta chains
// the way the write_stream workload does: single-op batches, half of them
// item inserts under one region, a quarter settexts on an inserted item's
// name, a quarter deletes of an inserted item.
type chainFixture struct {
	dir    string
	cat    *store.Catalog
	st     *view.Store
	region nodeid.ID
	live   []nodeid.ID
	n      int
}

func newChainFixture(tb testing.TB, scale int) *chainFixture {
	tb.Helper()
	f := &chainFixture{dir: tb.TempDir()}
	views := []*core.View{
		mkView("VITEM", `site(//item[id](/name[v]))`),
		mkView("VITEMLOC", `site(//item[id](/location[v]))`),
		mkView("VPERSON", `site(//person[id](/name[v]))`),
		mkView("VINCOME", `site(//person[id](?/profile(/income[v])))`),
		mkView("VOPEN", `site(//open_auction[id](/initial[v]))`),
		mkView("VBID", `site(//open_auction[id](n?/bidder[id](/increase[v])))`),
		mkView("VCLOSED", `site(//closed_auction[id](/price[v]))`),
	}
	if _, err := view.BuildStore(f.dir, datagen.XMark(scale, 1), views); err != nil {
		tb.Fatal(err)
	}
	var err error
	if f.cat, f.st, err = view.OpenUpdatableStore(f.dir); err != nil {
		tb.Fatal(err)
	}
	for _, c := range f.st.Document().Root.Children {
		if c.Label == "regions" {
			f.region = c.Children[0].ID
		}
	}
	if f.region == nil {
		tb.Fatal("document has no region")
	}
	return f
}

// commit persists n single-op batches, each one epoch.
func (f *chainFixture) commit(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		f.n++
		var u xmltree.Update
		switch {
		case f.n%4 < 2 || len(f.live) == 0:
			u = xmltree.Update{Kind: xmltree.UpdateInsert, Parent: f.region, Subtree: xmltree.MustParseParen(
				fmt.Sprintf(`item(@id "chain%d" location "chain" quantity "1" name "chain %d")`, f.n, f.n))}
		case f.n%4 == 2:
			item := f.st.Document().FindByID(f.live[f.n%len(f.live)])
			for _, c := range item.Children {
				if c.Label == "name" {
					u = xmltree.Update{Kind: xmltree.UpdateSetValue, Target: c.ID, Value: fmt.Sprintf("renamed %d", f.n)}
				}
			}
		default:
			u = xmltree.Update{Kind: xmltree.UpdateDelete, Target: f.live[len(f.live)-1]}
			f.live = f.live[:len(f.live)-1]
		}
		if _, err := view.ApplyAndPersistStaged(context.Background(), f.dir, f.cat, f.st, []xmltree.Update{u}, nil); err != nil {
			tb.Fatalf("batch %d: %v", f.n, err)
		}
		if u.Kind == xmltree.UpdateInsert {
			kids := f.st.Document().FindByID(f.region).Children
			f.live = append(f.live, kids[len(kids)-1].ID)
		}
	}
}

// referenceSegments folds every chain of the fixture's catalog one delta
// at a time (TestFoldChainMatchesSequentialFold pins a one-delta FoldChain
// to the per-delta reference fold) and returns the bytes store.WriteFile
// encodes each folded extent to, by view name.
func (f *chainFixture) referenceSegments(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for _, e := range f.cat.Views {
		if len(e.Deltas) == 0 {
			continue
		}
		rel, err := store.ReadFile(filepath.Join(f.dir, e.Segment))
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range e.Deltas {
			adds, dels, err := store.ReadDeltaFile(filepath.Join(f.dir, d.Segment))
			if err != nil {
				tb.Fatal(err)
			}
			rel = maintain.FoldChain(rel, []*nrel.Relation{adds}, []*nrel.Relation{dels})
		}
		path := filepath.Join(tb.TempDir(), "ref.xvs")
		if _, err := store.WriteFile(path, rel); err != nil {
			tb.Fatal(err)
		}
		if out[e.Name], err = os.ReadFile(path); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestCompactionAllocCeiling: compacting a 16-commit chain over XMark(100)
// allocates in proportion to the store plus the chain, not to their product
// — a per-delta fold renders every base row's key once per delta: ~80k
// mallocs and 3.5 MB here, against ~10k and ~0.75 MB in one pass — and
// every compacted segment is byte-identical to the delta-by-delta fold.
func TestCompactionAllocCeiling(t *testing.T) {
	const maxMallocs, maxBytes = 30_000, 2 << 20
	f := newChainFixture(t, 100)
	f.commit(t, 16)
	want := f.referenceSegments(t)
	if len(want) != 2 {
		t.Fatalf("the write mix changed %d views, want VITEM and VITEMLOC", len(want))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := view.CompactCatalog(f.dir, f.cat)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs, allocated := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("CompactCatalog folded %d delta(s): %d mallocs, %d bytes", res.Folded, mallocs, allocated)
	if res.Folded != 28 {
		// Every batch changes VITEM; all but the settexts change VITEMLOC.
		t.Fatalf("folded %d delta segments, want chains of 16 and 12", res.Folded)
	}
	if mallocs > maxMallocs || allocated > maxBytes {
		t.Errorf("CompactCatalog made %d mallocs, %d bytes; ceiling %d, %d", mallocs, allocated, maxMallocs, maxBytes)
	}
	for _, e := range f.cat.Views {
		ref, ok := want[e.Name]
		if !ok {
			continue
		}
		got, err := os.ReadFile(filepath.Join(f.dir, e.Segment))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("compacted segment %s of %s (%d bytes) differs from the delta-by-delta fold (%d bytes)",
				e.Segment, e.Name, len(got), len(ref))
		}
	}
}

// BenchmarkCompactCatalog times one online compaction of the write_stream
// shape: the benchmark's seven views over XMark(1000), two chains of 16
// single-op commits. The chain is rebuilt outside the timer before every
// iteration.
func BenchmarkCompactCatalog(b *testing.B) {
	f := newChainFixture(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.commit(b, 16)
		b.StartTimer()
		if res, err := view.CompactCatalog(f.dir, f.cat); err != nil || res.Folded == 0 {
			b.Fatalf("compaction: %+v, %v", res, err)
		}
	}
}
