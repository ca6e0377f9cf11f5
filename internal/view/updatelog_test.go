package view

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

var logTestBatches = []string{
	`[{"op":"insert","parent":"1","subtree":"item(name \"dry\")"}]`,
	`[{"op":"settext","target":"1.1.1","value":"quill"}]`,
	`[{"op":"delete","target":"1.3"}]`,
}

// logTestStore builds a two-item store and commits logTestBatches through
// one open store, returning the directory with a three-record log.
func logTestStore(t *testing.T) (dir string, views []*core.View) {
	t.Helper()
	dir = t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	views = []*core.View{
		{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
	}
	if _, err := BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range logTestBatches {
		ups, err := maintain.ParseUpdates([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return dir, views
}

func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, store.UpdateLogName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, store.UpdateLogName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCommitLogsTheBatchNotTheDocument: a commit leaves the base segment
// and the document checkpoint untouched and appends one log record per
// epoch; the catalog keeps naming the files that exist, and no other file
// is ever written.
func TestCommitLogsTheBatchNotTheDocument(t *testing.T) {
	dir, _ := logTestStore(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "catalog.json document.xvt seg-0000.xvs updates.xvl" {
		t.Fatalf("directory after 3 commits holds %s", got)
	}
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.FormatVersion != store.CatalogVersion || cat.Epoch != 3 || cat.DocEpoch != 0 || cat.DocSegment != DocSegmentName {
		t.Fatalf("catalog v%d epoch %d doc %s@%d", cat.FormatVersion, cat.Epoch, cat.DocSegment, cat.DocEpoch)
	}
	// The checkpoint still holds the built document: replay, not a rewrite,
	// is what brings it to epoch 3.
	doc, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.String(); got != `site(item(name "pen") item(name "ink"))` {
		t.Fatalf("checkpoint was rewritten by a commit: %s", got)
	}
	recs, _, tail, err := store.ReadUpdateLog(dir)
	if err != nil || tail != nil || len(recs) != 3 {
		t.Fatalf("log: %d record(s), tail %v, err %v", len(recs), tail, err)
	}
	for i, r := range recs {
		want, _ := maintain.ParseUpdates([]byte(logTestBatches[i]))
		wantJSON, _ := maintain.EncodeUpdates(want)
		if r.Epoch != int64(i+1) || string(r.Payload) != string(wantJSON) {
			t.Fatalf("record %d: epoch %d payload %s, want %s", i, r.Epoch, r.Payload, wantJSON)
		}
	}
	_, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Document().Root.String(); got != `site(item(name "quill") item(name "dry"))` {
		t.Fatalf("replayed document: %s", got)
	}
}

// TestAttachHandlesLogTails covers what the writer's open may find behind
// the last acknowledged record — AttachDocument cuts it — and what open
// must refuse.
func TestAttachHandlesLogTails(t *testing.T) {
	const replayed = `site(item(name "quill") item(name "dry"))`
	frame := func(t *testing.T, epoch int64, src string) []byte {
		t.Helper()
		tmp := t.TempDir()
		if err := store.AppendUpdateLog(tmp, epoch, []byte(src)); err != nil {
			t.Fatal(err)
		}
		return readLog(t, tmp)
	}
	for _, tc := range []struct {
		name   string
		mangle func(t *testing.T, log []byte, recs []store.LogRecord) []byte
		refuse string // substring of the attach error; empty: attach succeeds
	}{
		{
			name: "torn last record",
			mangle: func(t *testing.T, log []byte, _ []store.LogRecord) []byte {
				next := frame(t, 4, `[{"op":"delete","target":"1.1"}]`)
				return append(log, next[:len(next)-5]...)
			},
		},
		{
			name: "record beyond the catalog epoch",
			mangle: func(t *testing.T, log []byte, _ []store.LogRecord) []byte {
				return append(log, frame(t, 4, `[{"op":"delete","target":"1.1"}]`)...)
			},
		},
		{
			name: "garbage after the last record",
			mangle: func(t *testing.T, log []byte, _ []store.LogRecord) []byte {
				return append(log, make([]byte, 100)...)
			},
		},
		{
			name: "bad CRC mid-log",
			mangle: func(t *testing.T, log []byte, recs []store.LogRecord) []byte {
				log[recs[1].Offset+20] ^= 0x01
				return log
			},
			refuse: "fails its checksum",
		},
		{
			name: "acknowledged record torn away",
			mangle: func(t *testing.T, log []byte, recs []store.LogRecord) []byte {
				return log[:recs[2].Offset+7]
			},
			refuse: "stops at epoch 2, catalog is at 3",
		},
		{
			name: "epoch gap",
			mangle: func(t *testing.T, log []byte, recs []store.LogRecord) []byte {
				return append(log[:recs[1].Offset:recs[1].Offset], log[recs[2].Offset:]...)
			},
			refuse: "out of sequence: want epoch 2, found 3",
		},
		{
			name: "record replayed twice",
			mangle: func(t *testing.T, log []byte, recs []store.LogRecord) []byte {
				return append(log[:recs[2].Offset:recs[2].Offset], log[recs[1].Offset:]...)
			},
			refuse: "out of sequence: want epoch 3, found 2",
		},
		{
			name: "unappliable record",
			mangle: func(t *testing.T, log []byte, recs []store.LogRecord) []byte {
				return append(log[:recs[2].Offset:recs[2].Offset], frame(t, 3, `[{"op":"delete","target":"1.9"}]`)...)
			},
			refuse: "replaying epoch 3: maintain: update 0",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, views := logTestStore(t)
			log := readLog(t, dir)
			recs, _, _ := store.DecodeUpdateLog(log)
			clean := append([]byte(nil), log...)
			writeLog(t, dir, tc.mangle(t, log, recs))
			cat, st, err := OpenUpdatableStore(dir)
			if tc.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("attach error %v, want one containing %q", err, tc.refuse)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Document().Root.String(); cat.Epoch != 3 || got != replayed {
				t.Fatalf("epoch %d, document %s", cat.Epoch, got)
			}
			if got, want := st.Relation(views[0]).Clone(), MaterializeFlat(views[0], st.Document()); !got.EqualAsSet(want) {
				t.Fatalf("extent\n%swant\n%s", got.Sorted(), want.Sorted())
			}
			// The unacknowledged tail is gone from the file, so the next
			// commit's record lands behind the last acknowledged one.
			if got := readLog(t, dir); string(got) != string(clean) {
				t.Fatalf("log is %d byte(s) after attach, want the %d clean ones", len(got), len(clean))
			}
			ups, _ := maintain.ParseUpdates([]byte(`[{"op":"insert","parent":"1","subtree":"item(name \"nib\")"}]`))
			if _, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
				t.Fatal(err)
			}
			cat2, st2, err := OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Document().Root.String(); cat2.Epoch != 4 || got != `site(item(name "quill") item(name "dry") item(name "nib"))` {
				t.Fatalf("after one more commit: epoch %d, document %s", cat2.Epoch, got)
			}
		})
	}
}

// TestCheckpointDocument: the checkpoint writes epoch-named new base
// segments and document, the catalog names them, the log is emptied and
// the old files removed; a failed checkpoint leaves the catalog object and
// the directory as they were.
func TestCheckpointDocument(t *testing.T) {
	dir, _ := logTestStore(t)
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory squatting on the checkpoint's file name makes
	// the rename into place fail.
	blocker := filepath.Join(dir, "document.c0003.xvt")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := *cat
	if _, err := Checkpoint(dir, cat, st); err == nil {
		t.Fatal("checkpoint over an unusable file name succeeded")
	}
	if cat.DocSegment != before.DocSegment || cat.DocEpoch != before.DocEpoch || cat.Epoch != before.Epoch || cat.Views[0].Segment != "seg-0000.xvs" {
		t.Fatalf("failed checkpoint mutated the catalog: %s@%d, base %s", cat.DocSegment, cat.DocEpoch, cat.Views[0].Segment)
	}
	if _, _, err := OpenUpdatableStore(dir); err != nil {
		t.Fatalf("directory unusable after a failed checkpoint: %v", err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	res, err := Checkpoint(dir, cat, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesWritten != 2 || res.FilesRemoved != 2 {
		t.Fatalf("checkpoint result %+v, want the base and the document written and replaced", res)
	}
	if cat.DocSegment != "document.c0003.xvt" || cat.DocEpoch != 3 || cat.Views[0].Segment != "seg-0000.c0003.xvs" {
		t.Fatalf("catalog names %s@%d, base %s", cat.DocSegment, cat.DocEpoch, cat.Views[0].Segment)
	}
	for _, gone := range []string{DocSegmentName, "seg-0000.xvs"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("superseded %s not removed: %v", gone, err)
		}
	}
	if n := store.UpdateLogSize(dir); n != 0 {
		t.Fatalf("log holds %d byte(s) after the checkpoint", n)
	}
	doc, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.String(); got != `site(item(name "quill") item(name "dry"))` {
		t.Fatalf("checkpoint holds %s", got)
	}
	// Persisted PathIDs are the catalog summary's.
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		t.Fatal(err)
	}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.PathID < 0 || sum.Node(n.PathID).Label != n.Label {
			t.Errorf("node %s (%s) persisted with PathID %d", n.ID, n.Label, n.PathID)
		}
		return true
	})
	// Idempotent when there is nothing to fold.
	if res, err := Checkpoint(dir, cat, st); err != nil || cat.DocEpoch != 3 || res.FilesWritten != 0 {
		t.Fatalf("no-op checkpoint: %+v, %v, doc_epoch %d", res, err, cat.DocEpoch)
	}
	// A checkpoint whose log truncation never happened (crash after the
	// catalog rename): the stale records are skipped, not replayed twice.
	dir2, views := logTestStore(t)
	stale := readLog(t, dir2)
	cat2, st2, err := OpenUpdatableStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Checkpoint(dir2, cat2, st2); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir2, stale)
	_, st3, err := OpenUpdatableStore(dir2)
	if err != nil || st3.Document().Root.String() != `site(item(name "quill") item(name "dry"))` {
		t.Fatalf("reopen over stale log records: %v", err)
	}
	if got, want := st3.Relation(views[0]).Clone(), MaterializeFlat(views[0], st3.Document()); !got.EqualAsSet(want) {
		t.Fatalf("extent over stale log records\n%swant\n%s", got.Sorted(), want.Sorted())
	}
}

// TestUpdateStoreCheckpointsLongLogs: offline applies checkpoint on their
// own once the log holds CheckpointEvery epochs, so it cannot grow without
// bound between daemon runs.
func TestUpdateStoreCheckpointsLongLogs(t *testing.T) {
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "pen"))`)
	views := []*core.View{
		{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
	}
	if _, err := BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ups, _ := maintain.ParseUpdates([]byte(`[{"op":"settext","target":"1.1.1","value":"x"}]`))
	for i := 0; i < CheckpointEvery-1; i++ {
		if _, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
			t.Fatal(err)
		}
	}
	if CheckpointDue(cat) || cat.DocEpoch != 0 {
		t.Fatalf("checkpoint due after %d epochs", cat.Epoch)
	}
	if _, err := UpdateStore(dir, ups); err != nil {
		t.Fatal(err)
	}
	after, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != CheckpointEvery || after.DocEpoch != CheckpointEvery || store.UpdateLogSize(dir) != 0 {
		t.Fatalf("after the %dth epoch: doc_epoch %d, %d log byte(s)", after.Epoch, after.DocEpoch, store.UpdateLogSize(dir))
	}
}

// TestUnloggableBatchRefused: a batch whose wire form does not read back
// (here an inserted label outside the paren notation's alphabet) is
// refused before memory or disk change.
func TestUnloggableBatchRefused(t *testing.T) {
	dir, _ := logTestStore(t)
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := xmltree.NewDocument("odd label")
	_, err = ApplyAndPersistStaged(context.Background(), dir, cat, st,
		[]xmltree.Update{{Kind: xmltree.UpdateInsert, Parent: st.Document().Root.ID, Subtree: sub}}, nil)
	if err == nil || !strings.Contains(err.Error(), "no replayable log form") {
		t.Fatalf("unloggable batch: %v", err)
	}
	if st.Epoch() != 3 || cat.Epoch != 3 {
		t.Fatalf("refused batch advanced the epoch: store %d, catalog %d", st.Epoch(), cat.Epoch)
	}
}

// TestOlderDirectoriesUpgrade: a directory written before catalog version
// 5 opens read-only by rebuilding its extents from the document, without
// writing anything; its writer checkpoints it into the current layout
// (delta files and old bases gone), commits on top at once, and the result
// reopens equal to a rebuild. The version-2 case is the version-3 fixture
// with its manifest rewritten the way version-2 writers wrote it (no
// statistics in the summary text); the version-4 fixture has delta chains
// and a log past a document checkpoint.
func TestOlderDirectoriesUpgrade(t *testing.T) {
	for _, tc := range []struct {
		ver     int
		fixture string
		epoch   int64
		doc     string
		commit  string
		after   string
	}{
		{2, "store-v3", 1, `site(item(name "pen") item(name "ink") person(name "Ada") item(name "dry"))`,
			`[{"op":"settext","target":"1.1.1","value":"quill"}]`,
			`site(item(name "quill") item(name "ink") person(name "Ada") item(name "dry"))`},
		{3, "store-v3", 1, `site(item(name "pen") item(name "ink") person(name "Ada") item(name "dry"))`,
			`[{"op":"settext","target":"1.1.1","value":"quill"}]`,
			`site(item(name "quill") item(name "ink") person(name "Ada") item(name "dry"))`},
		{4, "store-v4", 4, `site(item(name "quill") item(name "ink well") person(name "Ada") item(name "dry") person(name "Bo"))`,
			`[{"op":"delete","target":"1.5"}]`,
			`site(item(name "quill") item(name "ink well") item(name "dry") person(name "Bo"))`},
	} {
		t.Run(fmt.Sprintf("v%d", tc.ver), func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join("testdata", tc.fixture, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == store.ManifestName && tc.ver == 2 {
					data = downgradeManifest(t, data)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			checkRebuilt := func(st *Store, views []*core.View, want string) {
				t.Helper()
				doc := st.Document()
				if doc == nil || doc.Root.String() != want {
					t.Fatalf("document %v, want %s", doc, want)
				}
				for _, v := range views {
					if got, rebuilt := st.Relation(v).Clone(), MaterializeFlat(v, doc); !got.EqualAsSet(rebuilt) {
						t.Fatalf("extent of %s\n%swant\n%s", v.Name, got.Sorted(), rebuilt.Sorted())
					}
				}
			}

			// Read-only: the upgrade happens in memory only.
			before := dirContents(t, dir)
			cat, err := store.OpenCatalog(dir)
			if err != nil {
				t.Fatal(err)
			}
			views, err := ViewsFromCatalog(cat)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := OpenStoreWithCatalog(dir, cat, views)
			if err != nil {
				t.Fatal(err)
			}
			if cat.FormatVersion != tc.ver || ro.Epoch() != tc.epoch {
				t.Fatalf("opened v%d at epoch %d", cat.FormatVersion, ro.Epoch())
			}
			checkRebuilt(ro, views, tc.doc)
			if after := dirContents(t, dir); len(after) != len(before) {
				t.Fatalf("read-only open changed the directory: %d file(s), had %d", len(after), len(before))
			}

			// The writer checkpoints into the current layout before committing.
			cat, st, err := OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if cat.FormatVersion != store.CatalogVersion || cat.Epoch != tc.epoch || cat.DocEpoch != tc.epoch {
				t.Fatalf("writer opened as v%d epoch %d doc_epoch %d", cat.FormatVersion, cat.Epoch, cat.DocEpoch)
			}
			want := map[string]bool{store.ManifestName: true, cat.DocSegment: true}
			for _, e := range cat.Views {
				want[e.Segment] = true
			}
			for name := range dirContents(t, dir) {
				if !want[name] && name != store.UpdateLogName {
					t.Errorf("upgrade checkpoint left %s behind", name)
				}
			}
			ups, err := maintain.ParseUpdates([]byte(tc.commit))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
				t.Fatal(err)
			}
			cat, st, err = OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if cat.FormatVersion != store.CatalogVersion || cat.Epoch != tc.epoch+1 || cat.DocEpoch != tc.epoch {
				t.Fatalf("reopened as v%d epoch %d doc_epoch %d", cat.FormatVersion, cat.Epoch, cat.DocEpoch)
			}
			checkRebuilt(st, views, tc.after)
		})
	}
}

func downgradeManifest(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	sum, err := summary.Parse(m["summary"].(string))
	if err != nil {
		t.Fatal(err)
	}
	m["format_version"] = 2
	m["summary"] = sum.String()
	m["summary_hash"] = store.SummaryHash(sum.String())
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}
