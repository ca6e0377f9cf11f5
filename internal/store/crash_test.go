package store_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The crash-point table: one scripted life of a store directory — commit,
// commit, document checkpoint, commit, compaction, commit, checkpoint —
// run under store.CrashFS once for every operation count N the script
// performs, with and without a torn final write. After each simulated
// power cut the durable state must reopen (OpenUpdatableStore) at exactly
// the epoch before or after the interrupted step, with the replayed
// document equal to an in-memory oracle's and every extent equal to a
// rebuild over it; then it must take one more update and reopen again,
// which a skipped epoch, a double-applied log record, a dangling
// doc_segment or an unreadable log would all fail.

const crashDoc = `<site><regions><asia>` +
	`<item><name>fan</name><location>Kyoto</location></item>` +
	`<item><name>kite</name><location>Weifang</location></item>` +
	`</asia><europe><item><name>clog</name><location>Gouda</location></item></europe></regions>` +
	`<people><person><name>Ada</name></person></people></site>`

func crashViews(t testing.TB) []*core.View {
	t.Helper()
	var views []*core.View
	for _, def := range [][2]string{
		{"VNAME", `site(//item[id](/name[v]))`},
		{"VLOC", `site(//item[id](/location[v]))`},
		{"VPERSON", `site(//person[id](/name[v]))`},
	} {
		p, err := pattern.Parse(def[1])
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, &core.View{Name: def[0], Pattern: p, DerivableParentIDs: true})
	}
	return views
}

// crashUpdates are the script's batches, in epoch order; probe is the
// extra batch applied after every recovery. Each is valid whatever subset
// of the earlier ones is applied... except that they are applied in order,
// which is the point.
var crashUpdates = []string{
	`[{"op":"insert","parent":"1.1.1","subtree":"item(name \"a \\\"quoted\\\\ name\" location \"Nara\")"}]`,
	`[{"op":"settext","target":"1.1.1.1.1","value":"folding fan"},{"op":"insert","parent":"1.3","subtree":"person(name \"Bo\")"}]`,
	`[{"op":"delete","target":"1.1.1.3"}]`,
	`[{"op":"rename","target":"1.1.3.1.3","label":"origin"},{"op":"insert","parent":"1.1.3","before":"1.1.3.1","subtree":"item(name \"bell\")"}]`,
}

const crashProbe = `[{"op":"insert","parent":"1.3","subtree":"person(name \"probe\")"}]`

func parseBatch(t testing.TB, src string) []xmltree.Update {
	t.Helper()
	ups, err := maintain.ParseUpdates([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return ups
}

// fingerprint renders a document node for node: IDs, labels and values.
func fingerprint(doc *xmltree.Document) string {
	var b strings.Builder
	doc.Root.Walk(func(n *xmltree.Node) bool {
		fmt.Fprintf(&b, "%s %s %q\n", n.ID, n.Label, n.Value)
		return true
	})
	return b.String()
}

// oracleDocs returns the fingerprint of the document after 0, 1, … batches
// and, for each, after that many batches plus the probe — computed on
// plain xmltree documents, never touching the store.
func oracleDocs(t testing.TB) (at, probed []string) {
	t.Helper()
	for k := 0; k <= len(crashUpdates); k++ {
		doc, err := xmltree.ParseXMLString(crashDoc)
		if err != nil {
			t.Fatal(err)
		}
		apply := func(src string) {
			for _, u := range parseBatch(t, src) {
				if _, err := doc.ApplyUpdate(u); err != nil {
					t.Fatalf("oracle: %v", err)
				}
			}
		}
		for _, src := range crashUpdates[:k] {
			apply(src)
		}
		at = append(at, fingerprint(doc))
		apply(crashProbe)
		probed = append(probed, fingerprint(doc))
	}
	return at, probed
}

// crashStep is one step of the script; epochs is how many it adds.
type crashStep struct {
	name   string
	epochs int64
	run    func(dir string, cat *store.Catalog, st *view.Store) error
}

func crashScript(t testing.TB) []crashStep {
	commit := func(i int) crashStep {
		ups := parseBatch(t, crashUpdates[i])
		return crashStep{fmt.Sprintf("commit %d", i+1), 1, func(dir string, cat *store.Catalog, st *view.Store) error {
			_, err := view.ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil)
			return err
		}}
	}
	checkpoint := crashStep{"checkpoint", 0, func(dir string, cat *store.Catalog, st *view.Store) error {
		return view.CheckpointDocument(dir, cat, st.Document())
	}}
	compact := crashStep{"compact", 0, func(dir string, cat *store.Catalog, st *view.Store) error {
		_, err := view.CompactCatalog(dir, cat)
		return err
	}}
	return []crashStep{commit(0), commit(1), checkpoint, commit(2), compact, commit(3), checkpoint}
}

// checkStore asserts the directory opens at one of the allowed epochs with
// the oracle's document and rebuilt extents, and returns that epoch.
func checkStore(t *testing.T, dir string, docs []string, allowed ...int64) int64 {
	t.Helper()
	cat, st, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ok := false
	for _, e := range allowed {
		ok = ok || cat.Epoch == e
	}
	if !ok {
		t.Fatalf("reopened at epoch %d, want one of %v", cat.Epoch, allowed)
	}
	if got := fingerprint(st.Document()); got != docs[cat.Epoch] {
		t.Fatalf("epoch %d: replayed document\n%swant\n%s", cat.Epoch, got, docs[cat.Epoch])
	}
	views, err := view.ViewsFromCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if got, want := st.Relation(v), view.MaterializeFlat(v, st.Document()); !got.EqualAsSet(want) {
			t.Fatalf("epoch %d: extent of %s\n%swant rebuild\n%s", cat.Epoch, v.Name, got.Sorted(), want.Sorted())
		}
	}
	if cat.DocEpoch > cat.Epoch {
		t.Fatalf("doc_epoch %d ahead of epoch %d", cat.DocEpoch, cat.Epoch)
	}
	if _, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment)); err != nil {
		t.Fatalf("doc_segment: %v", err)
	}
	return cat.Epoch
}

// runCrashScript copies the freshly built template store and runs the
// script on the copy under a CrashFS with the given limit. It returns the file system, where the cut fell,
// and the epochs the durable state may be at: the one reached by the
// steps that completed and, when a step was interrupted, the one it would
// have reached.
func runCrashScript(t *testing.T, template string, limit int, tear bool) (fs *store.CrashFS, at string, allowed []int64) {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, template, dir)
	cat, st, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, restore := store.InstallCrashFS(t, dir, limit, tear)
	defer restore()
	var epoch int64
	for _, step := range crashScript(t) {
		err := step.run(dir, cat, st)
		if err != nil && !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("limit %d: %s: %v", limit, step.name, err)
		}
		if err != nil {
			return fs, fmt.Sprintf("in %q after %v", step.name, lastOps(fs.Trace, 3)), []int64{epoch, epoch + step.epochs}
		}
		epoch += step.epochs
		if fs.Crashed() {
			// The cut fell on an operation whose error the step drops
			// (removing a superseded file): the step itself completed.
			return fs, fmt.Sprintf("at the end of %q", step.name), []int64{epoch}
		}
	}
	return fs, "after the last step", []int64{epoch}
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashPoints(t *testing.T) {
	docs, probed := oracleDocs(t)
	template := t.TempDir()
	doc, err := xmltree.ParseXMLString(crashDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.BuildStore(template, doc, crashViews(t)); err != nil {
		t.Fatal(err)
	}
	ref, _, _ := runCrashScript(t, template, -1, false)
	total := ref.Ops
	t.Logf("script performs %d file-system operations", total)
	seen := map[string]bool{}
	for _, op := range ref.Trace {
		seen[strings.Fields(op)[0]] = true
	}
	for _, op := range []string{"createTemp", "openAppend", "write", "truncate", "sync", "close", "rename", "remove", "syncDir"} {
		if !seen[op] {
			t.Errorf("script never performs %s: the table does not cover it", op)
		}
	}
	for _, tear := range []bool{false, true} {
		for limit := 0; limit <= total; limit++ {
			fs, at, allowed := runCrashScript(t, template, limit, tear)
			t.Run(fmt.Sprintf("tear=%v/ops=%d", tear, limit), func(t *testing.T) {
				t.Logf("power cut %s", at)
				crashed := t.TempDir()
				fs.Materialize(t, crashed)
				got := checkStore(t, crashed, docs, allowed...)
				// Recovery must leave a directory that keeps working: one more
				// commit on top of it, reopened once more. (Under a CrashFS that
				// never cuts, only to spare the test machine the real fsyncs.)
				_, restore := store.InstallCrashFS(t, crashed, -1, false)
				_, err := view.UpdateStore(crashed, parseBatch(t, crashProbe))
				restore()
				if err != nil {
					t.Fatalf("update after recovery: %v", err)
				}
				next := append(append([]string(nil), docs...), "")
				next[got+1] = probed[got]
				checkStore(t, crashed, next, got+1)
			})
		}
	}
}

func lastOps(trace []string, n int) []string {
	if len(trace) > n {
		trace = trace[len(trace)-n:]
	}
	return trace
}

// TestCrashFSDropsUnsyncedState pins the harness itself: bytes written but
// not synced, and names not followed by a directory sync, do not survive.
func TestCrashFSDropsUnsyncedState(t *testing.T) {
	dir := t.TempDir()
	fs, restore := store.InstallCrashFS(t, dir, -1, false)
	defer restore()
	if err := store.AppendUpdateLog(dir, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	fs.Limit = fs.Ops + 2 // open + write of the next append, not its sync
	if err := store.AppendUpdateLog(dir, 2, []byte("two")); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("append past the limit: %v", err)
	}
	out := t.TempDir()
	fs.Materialize(t, out)
	recs, _, tail, err := store.ReadUpdateLog(out)
	if err != nil || tail != nil || len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("durable log: %d record(s), tail %v, err %v; want exactly epoch 1", len(recs), tail, err)
	}
	if live, _, _, _ := store.ReadUpdateLog(dir); len(live) != 2 {
		t.Fatalf("live log has %d record(s), want 2 (the unsynced one is readable until the cut)", len(live))
	}
	if _, err := os.Stat(filepath.Join(out, store.UpdateLogName)); err != nil {
		t.Fatal(err)
	}
}
