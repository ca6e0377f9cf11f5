package view

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/xmltree"
)

// chainedStore builds a one-view store and commits an insert and a settext
// to it, leaving a delta chain of two.
func chainedStore(t *testing.T) (string, []*core.View) {
	t.Helper()
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	views := []*core.View{
		{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
	}
	if _, err := BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	for i, upd := range []string{
		`[{"op":"insert","parent":"1","subtree":"item(name \"dry\")"}]`,
		`[{"op":"settext","target":"1.1.1","value":"quill"}]`,
	} {
		ups, err := maintain.ParseUpdates([]byte(upd))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UpdateStore(dir, ups); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return dir, views
}

// TestCompactionChecksDeltaCounts: a delta whose tuple counts disagree with
// its catalog DeltaRef is refused by compaction exactly as by open — not
// folded into a new base with the evidence deleted — even when the folded
// extent still has the catalog's row count.
func TestCompactionChecksDeltaCounts(t *testing.T) {
	dir, views := chainedStore(t)
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.Views[0].Deltas[0].Adds++ // Rows stays consistent with the files
	if err := store.WriteCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, views); err == nil {
		t.Fatal("open accepted a delta whose counts disagree with the catalog")
	}
	if res, err := CompactStore(dir); err == nil {
		t.Fatalf("compaction folded a delta whose counts disagree with the catalog: %+v", res)
	}
	after, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.Views[0].Segment != cat.Views[0].Segment || len(after.Views[0].Deltas) != 2 {
		t.Fatalf("refused compaction changed the catalog: %+v", after.Views[0])
	}
	for _, d := range after.Views[0].Deltas {
		if _, err := os.Stat(filepath.Join(dir, d.Segment)); err != nil {
			t.Fatalf("refused compaction removed %s: %v", d.Segment, err)
		}
	}
}

// TestCompactionReclaimsFiles: compaction must write a fresh base segment,
// remove the superseded base and delta files after the catalog is durable,
// and leave a store that reopens with identical extents.
func TestCompactionReclaimsFiles(t *testing.T) {
	dir, views := chainedStore(t)
	preCat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldBase := preCat.Views[0].Segment
	var oldDeltas []string
	for _, d := range preCat.Views[0].Deltas {
		oldDeltas = append(oldDeltas, d.Segment)
	}
	if len(oldDeltas) != 2 {
		t.Fatalf("expected 2 deltas before compaction, have %v", oldDeltas)
	}
	_, preStore, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := preStore.Relation(views[0]).Sorted().String()

	res, err := CompactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 2 || res.FilesRemoved != 3 || res.BytesReclaimed <= 0 {
		t.Fatalf("unexpected compaction result: %+v", res)
	}
	for _, gone := range append(oldDeltas, oldBase) {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("superseded file %s still on disk (err=%v)", gone, err)
		}
	}
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seg := cat.Views[0].Segment; !strings.HasPrefix(seg, "seg-0000.c") || seg == oldBase {
		t.Fatalf("base segment not renamed by compaction: %s", seg)
	}
	if cat.Epoch != 2 || len(cat.Views[0].Deltas) != 0 {
		t.Fatalf("catalog not compacted: epoch %d, %d deltas", cat.Epoch, len(cat.Views[0].Deltas))
	}
	_, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Relation(views[0]).Sorted().String(); got != want {
		t.Fatalf("compaction changed the extent:\n%s\nwant:\n%s", got, want)
	}

	// A second compaction is a no-op and must not touch the new base.
	res2, err := CompactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Folded != 0 || res2.FilesRemoved != 0 {
		t.Fatalf("idle compaction did work: %+v", res2)
	}

	// The compacted store keeps taking updates, with delta names derived
	// from the new base stem.
	ups, err := maintain.ParseUpdates([]byte(`[{"op":"settext","target":"1.1.1","value":"nib"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateStore(dir, ups); err != nil {
		t.Fatal(err)
	}
	cat3, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat3.Views[0].Deltas) != 1 || !strings.Contains(cat3.Views[0].Deltas[0].Segment, ".d0003.") {
		t.Fatalf("post-compaction delta chain wrong: %+v", cat3.Views[0].Deltas)
	}
}
