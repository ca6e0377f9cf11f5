package view_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

func benchDocAndViews() (*xmltree.Document, []*core.View) {
	return benchDocAndViewsAt(40)
}

func benchDocAndViewsAt(scale int) (*xmltree.Document, []*core.View) {
	doc := datagen.XMark(scale, 1)
	views := []*core.View{
		mkView("vitem", `site(//item[id](/name[v]))`),
		mkView("vprice", `site(//price[id,v])`),
		mkView("vperson", `site(//person[id,c])`),
	}
	return doc, views
}

// BenchmarkStoreOpen compares cold store startup: loading persisted
// segments from disk (the xvserve path) versus re-materializing every
// extent from the parsed document (the seed behaviour).
func BenchmarkStoreOpen(b *testing.B) {
	doc, views := benchDocAndViews()
	dir := b.TempDir()
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		b.Fatal(err)
	}
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := view.OpenStore(dir, views); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rematerialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view.NewStore(doc, views)
		}
	})
}

// BenchmarkSegmentScan measures a full scan of one persisted extent (codec
// decode plus a pass over every row) versus evaluating the view's pattern
// over the document.
func BenchmarkSegmentScan(b *testing.B) {
	doc, _ := benchDocAndViews()
	v := mkView("vprice", `site(//price[id,v])`)
	dir := b.TempDir()
	cat, err := view.BuildStore(dir, doc, []*core.View{v})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, cat.Views[0].Segment)
	want := cat.Views[0].Rows
	b.Run("segment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := 0
			if err := store.Scan(path, func(cols []string, row nrel.Tuple) error {
				rows++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if rows != want {
				b.Fatalf("scanned %d rows, want %d", rows, want)
			}
		}
	})
	b.Run("evaluate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := view.MaterializeFlat(v, doc).Len(); n != want {
				b.Fatalf("materialized %d rows, want %d", n, want)
			}
		}
	})
}

// BenchmarkMaintainUpdate compares maintaining a store through one
// settext batch (relevance mapping + incremental summary maintenance +
// scoped extent diffing) against what a refresh costs without the engine:
// rebuilding the summary and re-materializing every extent — at two
// document scales, demonstrating that per-batch maintenance cost is
// roughly flat in document size while the rebuild grows linearly. The
// irrelevance filter prunes across views (only the price view is
// re-examined) and the scoped diff prunes within the extent (only the
// retexted price's item subtree is re-evaluated).
func BenchmarkMaintainUpdate(b *testing.B) {
	for _, scale := range []int{10, 40} {
		doc, views := benchDocAndViewsAt(scale)
		views = append(views,
			mkView("vmail", `site(//mail[id](/from[v]))`),
			mkView("vcat", `site(/categories(/category[id](/name[v])))`),
			mkView("vbidder", `site(//bidder[id](/increase[v]))`),
			mkView("vseller", `site(//seller[id,v])`),
			mkView("vkeyword", `site(//keyword[id,v])`),
		)
		st := view.NewStore(doc, views)
		var target nodeid.ID
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if target == nil && n.Label == "price" {
				target = n.ID
			}
			return target == nil
		})
		if target == nil {
			b.Fatal("no price node")
		}
		// Warm the store (first batch sorts the extents and builds the
		// maintained summary once; steady state is what a daemon sees).
		if _, err := st.ApplyUpdates(context.Background(), []xmltree.Update{
			{Kind: xmltree.UpdateSetValue, Target: target, Value: "0.00"},
		}); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("maintain/xmark%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := st.ApplyUpdates(context.Background(), []xmltree.Update{
					{Kind: xmltree.UpdateSetValue, Target: target, Value: fmt.Sprintf("%d.00", i)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/xmark%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				summary.Build(doc)
				view.NewStore(doc, views)
			}
		})
	}
}
