package view

import (
	"context"
	"encoding/json"
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

// TestCommitLogsTheBatchNotTheDocument: a commit leaves the document
// checkpoint untouched and appends one log record per epoch; the catalog
// keeps naming the checkpoint that exists.
func TestCommitLogsTheBatchNotTheDocument(t *testing.T) {
	dir, _ := logTestStore(t)
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

// TestAttachHandlesLogTails covers what AttachDocument may find behind the
// last acknowledged record, and what it must refuse.
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
			refuse: "replaying epoch 3, update 0",
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

// TestCheckpointDocument: the checkpoint is an epoch-named new file, the
// catalog names it, the log is emptied and the old file removed; a failed
// checkpoint leaves the catalog object and the directory as they were.
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
	if err := CheckpointDocument(dir, cat, st.Document()); err == nil {
		t.Fatal("checkpoint over an unusable file name succeeded")
	}
	if cat.DocSegment != before.DocSegment || cat.DocEpoch != before.DocEpoch || cat.Epoch != before.Epoch {
		t.Fatalf("failed checkpoint mutated the catalog: %s@%d", cat.DocSegment, cat.DocEpoch)
	}
	if _, _, err := OpenUpdatableStore(dir); err != nil {
		t.Fatalf("directory unusable after a failed checkpoint: %v", err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	if err := CheckpointDocument(dir, cat, st.Document()); err != nil {
		t.Fatal(err)
	}
	if cat.DocSegment != "document.c0003.xvt" || cat.DocEpoch != 3 {
		t.Fatalf("catalog names %s@%d", cat.DocSegment, cat.DocEpoch)
	}
	if _, err := os.Stat(filepath.Join(dir, DocSegmentName)); !os.IsNotExist(err) {
		t.Fatalf("old checkpoint not removed: %v", err)
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
	if err := CheckpointDocument(dir, cat, st.Document()); err != nil || cat.DocEpoch != 3 {
		t.Fatalf("no-op checkpoint: %v, doc_epoch %d", err, cat.DocEpoch)
	}
	// A checkpoint whose log truncation never happened (crash after the
	// catalog rename): the stale records are skipped, not replayed twice.
	dir2, _ := logTestStore(t)
	stale := readLog(t, dir2)
	cat2, st2, err := OpenUpdatableStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckpointDocument(dir2, cat2, st2.Document()); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir2, stale)
	if _, st3, err := OpenUpdatableStore(dir2); err != nil || st3.Document().Root.String() != `site(item(name "quill") item(name "dry"))` {
		t.Fatalf("reopen over stale log records: %v", err)
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
// 4 (document current at the catalog epoch, no log) opens, takes an
// update, and reopens as version 4 with the update replayed from the log;
// its first checkpoint moves it to an epoch-named document file. The
// version-2 case is the version-3 fixture with its manifest rewritten the
// way version-2 writers wrote it (no statistics in the summary text).
func TestOlderDirectoriesUpgrade(t *testing.T) {
	for _, ver := range []int{2, 3} {
		t.Run("v"+string(rune('0'+ver)), func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir(filepath.Join("testdata", "store-v3"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join("testdata", "store-v3", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == store.ManifestName && ver == 2 {
					data = downgradeManifest(t, data)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cat, st, err := OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if cat.FormatVersion != ver || cat.Epoch != 1 || cat.DocEpoch != 1 {
				t.Fatalf("opened as v%d epoch %d doc_epoch %d", cat.FormatVersion, cat.Epoch, cat.DocEpoch)
			}
			if got := st.Document().Root.String(); got != `site(item(name "pen") item(name "ink") person(name "Ada") item(name "dry"))` {
				t.Fatalf("document: %s", got)
			}
			ups, _ := maintain.ParseUpdates([]byte(`[{"op":"settext","target":"1.1.1","value":"quill"}]`))
			if _, err := UpdateStore(dir, ups); err != nil {
				t.Fatal(err)
			}
			cat, st, err = OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if cat.FormatVersion != store.CatalogVersion || cat.Epoch != 2 || cat.DocEpoch != 1 || cat.DocSegment != DocSegmentName {
				t.Fatalf("reopened as v%d epoch %d doc %s@%d", cat.FormatVersion, cat.Epoch, cat.DocSegment, cat.DocEpoch)
			}
			const want = `site(item(name "quill") item(name "ink") person(name "Ada") item(name "dry"))`
			if got := st.Document().Root.String(); got != want {
				t.Fatalf("replayed document: %s", got)
			}
			views, err := ViewsFromCatalog(cat)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range views {
				if got, rebuilt := st.Relation(v).Clone(), MaterializeFlat(v, st.Document()); !got.EqualAsSet(rebuilt) {
					t.Fatalf("extent of %s\n%swant\n%s", v.Name, got.Sorted(), rebuilt.Sorted())
				}
			}
			if err := CheckpointDocument(dir, cat, st.Document()); err != nil {
				t.Fatal(err)
			}
			if _, st, err = OpenUpdatableStore(dir); err != nil || st.Document().Root.String() != want {
				t.Fatalf("after the first checkpoint: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, DocSegmentName)); !os.IsNotExist(err) {
				t.Fatalf("document.xvt survived the first checkpoint: %v", err)
			}
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
