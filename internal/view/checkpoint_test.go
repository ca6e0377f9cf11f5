package view_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// logFixture is an updatable XMark store over the benchmark harness's
// seven views (bench/setup.go), with a writer that grows its update log
// the way the write_stream workload does: single-op batches, half of them
// item inserts under one region, a quarter settexts on an inserted item's
// name, a quarter deletes of an inserted item.
type logFixture struct {
	dir    string
	cat    *store.Catalog
	st     *view.Store
	region nodeid.ID
	live   []nodeid.ID
	n      int
}

func newLogFixture(tb testing.TB, scale int) *logFixture {
	tb.Helper()
	f := &logFixture{dir: tb.TempDir()}
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
func (f *logFixture) commit(tb testing.TB, n int) {
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

// TestCompactionAllocCeiling: a checkpoint after 16 commits over
// XMark(100) rewrites only what changed since the last one — the two item
// views the write mix touches, and the document — each new base segment
// holds exactly a rebuild of its view, and the step allocates in
// proportion to what it writes (~23k mallocs and 2.4 MB here: the two
// segments' encodings and the document's).
func TestCompactionAllocCeiling(t *testing.T) {
	const maxMallocs, maxBytes = 60_000, 6 << 20
	f := newLogFixture(t, 100)
	f.commit(t, 16)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := view.Checkpoint(f.dir, f.cat, f.st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs, allocated := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("Checkpoint wrote %d file(s), %d bytes: %d mallocs, %d bytes allocated", res.FilesWritten, res.BytesWritten, mallocs, allocated)
	if res.FilesWritten != 3 || res.FilesRemoved != 3 {
		// Every batch changes VITEM; all but the settexts change VITEMLOC.
		t.Fatalf("checkpoint wrote %d and removed %d file(s), want the VITEM and VITEMLOC bases and the document", res.FilesWritten, res.FilesRemoved)
	}
	if mallocs > maxMallocs || allocated > maxBytes {
		t.Errorf("Checkpoint made %d mallocs, %d bytes; ceiling %d, %d", mallocs, allocated, maxMallocs, maxBytes)
	}
	views, err := view.ViewsFromCatalog(f.cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range f.cat.Views {
		rel, err := store.ReadFile(filepath.Join(f.dir, e.Segment))
		if err != nil {
			t.Fatal(err)
		}
		if want := view.MaterializeFlat(views[i], f.st.Document()); !rel.EqualAsSet(want) || rel.Len() != e.Rows {
			t.Errorf("base segment %s of %s (%d rows) is not a rebuild (%d rows)", e.Segment, e.Name, rel.Len(), want.Len())
		}
	}
}

// BenchmarkOpenFullLog times a restart at the longest log the writer
// leaves behind: the benchmark's seven views over XMark(1000) with
// CheckpointEvery-1 logged single-op commits past the base segments, all
// replayed through ApplyUpdates by the open.
func BenchmarkOpenFullLog(b *testing.B) {
	f := newLogFixture(b, 1000)
	f.commit(b, view.CheckpointEvery-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat, err := store.OpenCatalog(f.dir)
		if err != nil {
			b.Fatal(err)
		}
		views, err := view.ViewsFromCatalog(cat)
		if err != nil {
			b.Fatal(err)
		}
		st, err := view.OpenStoreWithCatalog(f.dir, cat, views)
		if err != nil {
			b.Fatal(err)
		}
		if st.Epoch() != view.CheckpointEvery-1 {
			b.Fatalf("opened at epoch %d", st.Epoch())
		}
	}
}
