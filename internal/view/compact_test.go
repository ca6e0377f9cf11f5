package view

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/xmltree"
)

// loggedStore builds a one-view store and commits an insert and a settext
// to it offline, leaving a two-record update log over the built bases.
func loggedStore(t *testing.T) (string, []*core.View) {
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

// dirContents maps every file of dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCompactionChecksDeltaCounts: a log whose replay disagrees with the
// catalog's row counts is refused by compaction exactly as by open — not
// folded into a new base with the evidence deleted — and the refused
// compaction leaves every file as it was.
func TestCompactionChecksDeltaCounts(t *testing.T) {
	dir, views := loggedStore(t)
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.Views[0].Rows++
	if err := store.WriteCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	if _, err := OpenStore(dir, views); err == nil {
		t.Fatal("open accepted a replay whose row count disagrees with the catalog")
	}
	if res, err := CompactStore(dir); err == nil {
		t.Fatalf("compaction checkpointed a replay whose row count disagrees with the catalog: %+v", res)
	}
	after := dirContents(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused compaction left %d file(s), had %d", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("refused compaction changed %s", name)
		}
	}
}

// TestCompactionReclaimsFiles: compaction (the offline checkpoint) writes
// a fresh base segment and document checkpoint, removes the superseded
// ones after the catalog is durable, empties the log, and leaves a store
// that reopens with identical extents and keeps taking updates.
func TestCompactionReclaimsFiles(t *testing.T) {
	dir, views := loggedStore(t)
	_, preStore, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := preStore.Relation(views[0]).Clone().Sorted().String()

	res, err := CompactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesWritten != 2 || res.BytesWritten <= 0 || res.FilesRemoved != 2 || res.BytesReclaimed <= 0 {
		t.Fatalf("unexpected compaction result: %+v", res)
	}
	for _, gone := range []string{"seg-0000.xvs", DocSegmentName} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("superseded file %s still on disk (err=%v)", gone, err)
		}
	}
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epoch != 2 || cat.DocEpoch != 2 || cat.Views[0].Segment != "seg-0000.c0002.xvs" || cat.DocSegment != "document.c0002.xvt" {
		t.Fatalf("catalog after compaction: epoch %d, base %s, document %s@%d",
			cat.Epoch, cat.Views[0].Segment, cat.DocSegment, cat.DocEpoch)
	}
	if n := store.UpdateLogSize(dir); n != 0 {
		t.Fatalf("log holds %d byte(s) after compaction", n)
	}
	st, err := OpenStore(dir, views)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Relation(views[0]).Clone().Sorted().String(); got != want {
		t.Fatalf("compaction changed the extent:\n%s\nwant:\n%s", got, want)
	}

	// A second compaction is a no-op and must not touch the new base.
	res2, err := CompactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FilesWritten != 0 || res2.FilesRemoved != 0 {
		t.Fatalf("idle compaction did work: %+v", res2)
	}

	// The compacted store keeps taking updates: one log record, no new file.
	ups, err := maintain.ParseUpdates([]byte(`[{"op":"settext","target":"1.1.1","value":"nib"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateStore(dir, ups); err != nil {
		t.Fatal(err)
	}
	files := dirContents(t, dir)
	if len(files) != 4 || files["seg-0000.c0002.xvs"] == nil || files["document.c0002.xvt"] == nil ||
		files[store.ManifestName] == nil || files[store.UpdateLogName] == nil {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		t.Fatalf("directory after one more commit holds %v", names)
	}
}
