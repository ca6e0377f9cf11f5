package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// commit, checkpoint, commit, commit, checkpoint, commit — run under
// store.CrashFS once for every operation count N the script performs, with
// and without a torn final write. After each simulated power cut the
// durable state must open read-only and as the writer
// (OpenUpdatableStore) at exactly the epoch before or after the
// interrupted step, with the replayed document equal to an in-memory
// oracle's and every extent equal to a rebuild over it; then it must take
// one more update and reopen again, which a skipped epoch, a
// double-applied log record, a dangling base segment or doc_segment or an
// unreadable log would all fail. Every view changes between checkpoints,
// so each checkpoint rewrites all six base segments.

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
		{"VITEM", `site(//item[id])`},
		{"VPERSON", `site(//person[id](/name[v]))`},
		{"VPEOPLE", `site(/people(/person[id]))`},
		{"VPNAME", `site(//person(/name[id,v]))`},
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
	`[{"op":"delete","target":"1.1.1.3"},{"op":"settext","target":"1.3.1.1","value":"Ada L."}]`,
	`[{"op":"rename","target":"1.1.3.1.3","label":"origin"},{"op":"insert","parent":"1.1.3","before":"1.1.3.1","subtree":"item(name \"bell\")"},{"op":"insert","parent":"1.3","subtree":"person(name \"Cy\")"}]`,
	`[{"op":"delete","target":"1.3.1"}]`,
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
		_, err := view.Checkpoint(dir, cat, st)
		return err
	}}
	return []crashStep{commit(0), commit(1), checkpoint, commit(2), commit(3), checkpoint, commit(4)}
}

// checkStore asserts the directory opens at one of the allowed epochs with
// the oracle's document and rebuilt extents, and returns that epoch.
func checkStore(t *testing.T, dir string, docs []string, allowed ...int64) int64 {
	t.Helper()
	ro, err := view.OpenStore(dir, crashViews(t))
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
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
	if ro.Epoch() != cat.Epoch {
		t.Fatalf("read-only open at epoch %d, writer at %d", ro.Epoch(), cat.Epoch)
	}
	for _, v := range views {
		want := view.MaterializeFlat(v, st.Document())
		if got := st.Relation(v).Clone(); !got.EqualAsSet(want) {
			t.Fatalf("epoch %d: extent of %s\n%swant rebuild\n%s", cat.Epoch, v.Name, got.Sorted(), want.Sorted())
		}
		if got := ro.Relation(v).Clone(); !got.EqualAsSet(want) {
			t.Fatalf("epoch %d: read-only extent of %s\n%swant rebuild\n%s", cat.Epoch, v.Name, got.Sorted(), want.Sorted())
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

// crashTemplate builds the script's starting store in a fresh directory.
func crashTemplate(t *testing.T) string {
	t.Helper()
	template := t.TempDir()
	doc, err := xmltree.ParseXMLString(crashDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.BuildStore(template, doc, crashViews(t)); err != nil {
		t.Fatal(err)
	}
	return template
}

// scriptOps runs the script without a fault and returns its operation
// trace, failing t unless every kind of file-system operation occurs in
// it: a table over the trace covers exactly the kinds it performs.
func scriptOps(t *testing.T, template string) []string {
	t.Helper()
	ref, _, _ := runCrashScript(t, template, -1, false)
	t.Logf("script performs %d file-system operations", ref.Ops)
	seen := map[string]bool{}
	for _, op := range ref.Trace {
		seen[strings.Fields(op)[0]] = true
	}
	for _, op := range []string{"createTemp", "openAppend", "write", "truncate", "sync", "close", "rename", "remove", "syncDir"} {
		if !seen[op] {
			t.Errorf("script never performs %s: the table does not cover it", op)
		}
	}
	return ref.Trace
}

func TestCrashPoints(t *testing.T) {
	docs, probed := oracleDocs(t)
	template := crashTemplate(t)
	total := len(scriptOps(t, template))
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

// TestWriteErrorsSurface is the write-error table beside the crash-point
// table: the same script, run once for every operation N it performs, with
// operation N failing (store.ErrInjected) and every other succeeding. A
// commit must return the failure as a *view.PersistError, which is what
// makes the server refuse the ack. A checkpoint must return it too, and
// leave the catalog object as it was when the failure came at or before
// its catalog write. The only failures a step may absorb are removals of
// superseded files, each of which then stays on disk. A Sync or Close
// error dropped anywhere on the write path shows up here as a step that
// returned nil; a power cut cannot show it.
func TestWriteErrorsSurface(t *testing.T) {
	template := crashTemplate(t)
	trace := scriptOps(t, template)
	surfaced := 0
	var absorbed []string
	for n := range trace {
		t.Run(fmt.Sprintf("op=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, template, dir)
			cat, st, err := view.OpenUpdatableStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs, restore := store.InstallCrashFS(t, dir, -1, false)
			defer restore()
			fs.FailAt = n
			for _, step := range crashScript(t) {
				first := fs.Ops
				before, err := json.Marshal(cat)
				if err != nil {
					t.Fatal(err)
				}
				err = step.run(dir, cat, st)
				if n < first || n >= fs.Ops {
					if err != nil {
						t.Fatalf("%s failed with operation %d (%s) outside it: %v", step.name, n, trace[n], err)
					}
					continue
				}
				op := fs.Trace[n]
				if err == nil {
					name, ok := strings.CutPrefix(op, "remove ")
					if !ok {
						t.Fatalf("%s absorbed a failed %s", step.name, op)
					}
					if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
						t.Fatalf("%s absorbed a failed %s, but the file is gone: %v", step.name, op, err)
					}
					absorbed = append(absorbed, op)
					continue
				}
				if !errors.Is(err, store.ErrInjected) {
					t.Fatalf("%s: failed %s surfaced as %v, not the injected error", step.name, op, err)
				}
				surfaced++
				if step.epochs > 0 {
					var pe *view.PersistError
					if !errors.As(err, &pe) {
						t.Fatalf("%s: failed %s surfaced as %T, not *view.PersistError: %v", step.name, op, err, err)
					}
					return
				}
				// The catalog write ends with the directory sync after its
				// rename; a failure up to there must leave cat as it was.
				done := fs.Trace[first:n]
				r := slices.Index(done, "rename → "+store.ManifestName)
				if r < 0 || r+1 == len(done) {
					after, err := json.Marshal(cat)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(before, after) {
						t.Fatalf("%s: failed %s changed the catalog object:\n%s\nwas\n%s", step.name, op, after, before)
					}
				}
				return
			}
			if fs.Ops <= n {
				t.Fatalf("the script ended after %d operations, before operation %d", fs.Ops, n)
			}
		})
	}
	t.Logf("%d operations: %d surfaced the injected error, %d absorbed: %v", len(trace), surfaced, len(absorbed), absorbed)
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
