package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlviews/internal/maintain"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
)

// barrierUpdate targets a node that does not exist: the committer rejects
// it at dry-run with 422 and commits nothing. Because one goroutine runs
// commits and checkpoints in turn, its ack also proves that every step the
// previous group triggered (the checkpoint included) has finished.
const barrierUpdate = `[{"op":"settext","target":"1.99.1","value":"x"}]`

func barrier(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var e errorResponse
	if code := postUpdate(t, ts, barrierUpdate, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("barrier update: status %d (%s), want 422 from the committer", code, e.Error)
	}
}

// dirFiles lists a store directory's file names, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// logOffline commits n settexts to dir through the offline writer path,
// without ever checkpointing: the log then holds n more epochs.
func logOffline(t *testing.T, dir string, n int) {
	t.Helper()
	cat, st, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		ups, err := maintain.ParseUpdates([]byte(fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"old%d"}]`, k)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := view.ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// copyFixture copies a store directory from internal/view/testdata into a
// fresh temporary directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("..", "view", "testdata", name)
	dir := t.TempDir()
	for _, f := range dirFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCompactionIsACommitterStep: the checkpoint, which replaced
// compaction, is the committer's only background step, so between
// checkpoints a commit writes nothing but its log record and the catalog.
// After each of a run of sequential acked updates the directory holds the
// built base segments, the document, updates.xvl and catalog.json, and no
// checkpoint has run; the first checkpoint replaces exactly the changed
// bases and the document.
func TestCompactionIsACommitterStep(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{})
	want := "catalog.json document.xvt seg-0000.xvs seg-0001.xvs seg-0002.xvs updates.xvl"
	for k := int64(1); k <= view.CheckpointEvery; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"n%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != k {
			t.Fatalf("update %d: status %d, epoch %d", k, code, up.Epoch)
		}
		if k%64 != 0 && k != 1 {
			continue
		}
		barrier(t, ts)
		if k == view.CheckpointEvery {
			want = fmt.Sprintf("catalog.json document.c%04d.xvt seg-0000.c%04d.xvs seg-0001.xvs seg-0002.xvs updates.xvl", k, k)
		}
		if got := strings.Join(dirFiles(t, dir), " "); got != want {
			t.Fatalf("after update %d the directory holds %s, want %s", k, got, want)
		}
		if got, wantRuns := mustScrape(t, ts).get(t, "xvserve_doc_checkpoints_total"), float64(k/view.CheckpointEvery); got != wantRuns {
			t.Fatalf("after update %d: %v checkpoint(s), want %v", k, got, wantRuns)
		}
	}
}

// TestFailedCompactionIsLogged: a checkpoint (what compaction became) that
// cannot write its files is counted and logged at ERROR with the error,
// leaves the server healthy, and updates keep committing on the log.
func TestFailedCompactionIsLogged(t *testing.T) {
	buf := &syncBuffer{}
	_, dir := newUpdatableServer(t, Config{ReadOnly: true}) // builds the store; starts no goroutine
	logOffline(t, dir, view.CheckpointEvery-1)
	// A non-empty directory squats on the base segment name the checkpoint
	// after the next commit wants.
	squat := filepath.Join(dir, fmt.Sprintf("seg-0000.c%04d.xvs", view.CheckpointEvery))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir, Logger: slog.New(slog.NewJSONHandler(buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var up UpdateResponse
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.1.1","value":"n1"}]`, &up); code != http.StatusOK || up.Epoch != view.CheckpointEvery {
		t.Fatalf("update: status %d, epoch %d", code, up.Epoch)
	}
	barrier(t, ts) // the log reached CheckpointEvery: the failed checkpoint has run
	if got := mustScrape(t, ts).get(t, "xvserve_doc_checkpoint_errors_total"); got != 1 {
		t.Fatalf("xvserve_doc_checkpoint_errors_total = %v, want 1", got)
	}
	var errs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if entry["level"] == "ERROR" {
			errs = append(errs, entry)
		}
	}
	if len(errs) != 1 {
		t.Fatalf("%d ERROR log lines, want 1:\n%s", len(errs), buf.String())
	}
	if msg, _ := errs[0]["msg"].(string); !strings.Contains(msg, "checkpoint failed") ||
		!strings.Contains(fmt.Sprint(errs[0]["error"]), filepath.Base(squat)) {
		t.Fatalf("checkpoint failure logged as %v", errs[0])
	}
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.3.1","value":"n3"}]`, &up); code != http.StatusOK || up.Epoch != view.CheckpointEvery+1 {
		t.Fatalf("update after the failed checkpoint: status %d, epoch %d", code, up.Epoch)
	}
	m := mustScrape(t, ts)
	if m.get(t, "xvserve_degraded") != 0 || m.get(t, "xvserve_durable_epoch") != view.CheckpointEvery+1 || m.get(t, "xvserve_doc_epoch") != 0 {
		t.Fatalf("after the failed checkpoint: degraded %v, durable epoch %v, doc epoch %v",
			m["xvserve_degraded"], m["xvserve_durable_epoch"], m["xvserve_doc_epoch"])
	}
}

// TestOverThresholdStoreFoldedBeforeFirstCommit: a store opened with a log
// already at CheckpointEvery epochs is checkpointed before the first
// update commits, so that update's record is the only one in the log.
func TestOverThresholdStoreFoldedBeforeFirstCommit(t *testing.T) {
	_, dir := newUpdatableServer(t, Config{ReadOnly: true}) // builds the store; starts no goroutine
	logOffline(t, dir, view.CheckpointEvery)

	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var up UpdateResponse
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.1.1","value":"new"}]`, &up); code != http.StatusOK || up.Epoch != view.CheckpointEvery+1 {
		t.Fatalf("first update: status %d, epoch %d", code, up.Epoch)
	}
	m := mustScrape(t, ts)
	if doc, recs := m.get(t, "xvserve_doc_epoch"), m.get(t, "xvserve_update_log_records"); doc != view.CheckpointEvery || recs != 1 {
		t.Fatalf("doc epoch %v, update log records %v; want %d, 1 (checkpoint first, then commit)",
			doc, recs, view.CheckpointEvery)
	}
	if recs, _, tail, err := store.ReadUpdateLog(dir); err != nil || tail != nil || len(recs) != 1 || recs[0].Epoch != view.CheckpointEvery+1 {
		t.Fatalf("log after the first commit: %d record(s), tail %v, err %v", len(recs), tail, err)
	}
}

// TestOlderStoreCheckpointedAtStart: a daemon over a catalog-version-4
// directory checkpoints it into the current layout when its committer
// starts, before any commit; a read-only daemon over the same files
// upgrades in memory only. Both answer at the directory's epoch.
func TestOlderStoreCheckpointedAtStart(t *testing.T) {
	const q = `site(//item[id](/name[v]))`
	query := func(ts *httptest.Server) QueryResponse {
		t.Helper()
		var resp QueryResponse
		if code := getJSON(t, ts.URL+"/query?q="+url.QueryEscape(q), &resp); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		return resp
	}
	serveDir := func(cfg Config) *httptest.Server {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}

	roDir := copyFixture(t, "store-v4")
	before := dirFiles(t, roDir)
	ro := serveDir(Config{Dir: roDir, ReadOnly: true})
	if resp := query(ro); resp.Epoch != 4 || resp.TotalRows != 3 {
		t.Fatalf("read-only daemon: %d rows at epoch %d", resp.TotalRows, resp.Epoch)
	}
	cat, err := store.OpenCatalog(roDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dirFiles(t, roDir); cat.FormatVersion != 4 || strings.Join(got, " ") != strings.Join(before, " ") {
		t.Fatalf("read-only daemon wrote to the directory: v%d, files %v", cat.FormatVersion, got)
	}

	dir := copyFixture(t, "store-v4")
	ts := serveDir(Config{Dir: dir})
	barrier(t, ts) // the start-up checkpoint has run
	if cat, err = store.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	if cat.FormatVersion != store.CatalogVersion || cat.DocEpoch != 4 || cat.Epoch != 4 {
		t.Fatalf("after start: v%d epoch %d doc_epoch %d", cat.FormatVersion, cat.Epoch, cat.DocEpoch)
	}
	if got := strings.Join(dirFiles(t, dir), " "); got != "catalog.json document.c0004.xvt seg-0000.c0004.xvs seg-0001.c0004.xvs updates.xvl" {
		t.Fatalf("after start the directory holds %s", got)
	}
	var up UpdateResponse
	if code := postUpdate(t, ts, `[{"op":"delete","target":"1.1"}]`, &up); code != http.StatusOK || up.Epoch != 5 {
		t.Fatalf("first update: status %d, epoch %d", code, up.Epoch)
	}
	if resp := query(ts); resp.Epoch != 5 || resp.TotalRows != 2 {
		t.Fatalf("after the update: %d rows at epoch %d", resp.TotalRows, resp.Epoch)
	}
}

// TestOpenNeverWrites: a directory whose log holds a record beyond the
// catalog epoch and a torn tail opens read-only — OpenStoreWithCatalog
// and a ReadOnly daemon — at the catalog epoch, leaving the log's bytes
// alone; a writer then cuts the tail and commits the next epoch.
func TestOpenNeverWrites(t *testing.T) {
	_, dir := newUpdatableServer(t, Config{ReadOnly: true}) // builds the store; starts no goroutine
	logOffline(t, dir, 3)
	clean, err := os.ReadFile(filepath.Join(dir, store.UpdateLogName))
	if err != nil {
		t.Fatal(err)
	}
	// A commit that crashed between its log append and its catalog rename,
	// then half of another append.
	if err := store.AppendUpdateLog(dir, 4, []byte(`[{"op":"delete","target":"1.1"}]`)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, store.UpdateLogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dirty, err := os.ReadFile(filepath.Join(dir, store.UpdateLogName))
	if err != nil {
		t.Fatal(err)
	}
	logUnchanged := func(when string) {
		t.Helper()
		if got, err := os.ReadFile(filepath.Join(dir, store.UpdateLogName)); err != nil || string(got) != string(dirty) {
			t.Fatalf("%s rewrote the log (%d byte(s), had %d): %v", when, len(got), len(dirty), err)
		}
	}

	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	views, err := view.ViewsFromCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	st, err := view.OpenStoreWithCatalog(dir, cat, views)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 3 || st.Relation(views[0]).Len() != 2 {
		t.Fatalf("OpenStoreWithCatalog at epoch %d with %d vname rows, want 3 and 2", st.Epoch(), st.Relation(views[0]).Len())
	}
	logUnchanged("OpenStoreWithCatalog")

	srv, err := New(Config{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+url.QueryEscape(`site(/item[id](/name[v]))`), &resp); code != http.StatusOK || resp.Epoch != 3 || resp.TotalRows != 2 {
		t.Fatalf("read-only daemon: status %d, %d rows at epoch %d", code, resp.TotalRows, resp.Epoch)
	}
	ts.Close()
	srv.Close()
	logUnchanged("a read-only daemon")

	ups, err := maintain.ParseUpdates([]byte(`[{"op":"settext","target":"1.3.1","value":"nib"}]`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := view.UpdateStore(dir, ups)
	if err != nil || res.Epoch != 4 {
		t.Fatalf("writer commit: %+v, %v", res, err)
	}
	recs, _, tail, err := store.ReadUpdateLog(dir)
	if err != nil || tail != nil || len(recs) != 4 {
		t.Fatalf("log after the writer's commit: %d record(s), tail %v, err %v", len(recs), tail, err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, store.UpdateLogName)); string(got[:len(clean)]) != string(clean) ||
		string(recs[3].Payload) == `[{"op":"delete","target":"1.1"}]` {
		t.Fatal("the writer did not cut the unacknowledged tail before appending")
	}
}

// TestCloseRefusesQueueAndLeaksNothing: requests still queued when Close
// is called are answered 503 — no new group starts — and the committer
// goroutine is gone when Close returns.
func TestCloseRefusesQueueAndLeaksNothing(t *testing.T) {
	_, dir := newUpdatableServer(t, Config{ReadOnly: true}) // builds the store; starts no goroutine
	before := runtime.NumGoroutine()
	// GroupMax 1: the committer takes the parked request alone, so the
	// requests queued behind it stay queued.
	srv, err := New(Config{Dir: dir, GroupMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(body string) *commitReq {
		ups, err := maintain.ParseUpdates([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return &commitReq{updates: ups, enq: time.Now(), done: make(chan commitAck, 1)}
	}
	// Park the committer inside an ack: this request's done channel is
	// unbuffered, so the committer blocks until the test receives.
	parked := parse(barrierUpdate)
	parked.done = make(chan commitAck)
	srv.commitQ <- parked
	for len(srv.commitQ) > 0 {
		time.Sleep(time.Millisecond) // until the committer has taken it
	}
	var queued []*commitReq
	for i := 0; i < 3; i++ {
		r := parse(fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"q%d"}]`, i))
		queued = append(queued, r)
		srv.commitQ <- r
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-srv.stop // Close has begun
	if ack := <-parked.done; ack.status != http.StatusUnprocessableEntity {
		t.Fatalf("parked request acked %d, want 422", ack.status)
	}
	<-closed
	for i, r := range queued {
		select {
		case ack := <-r.done:
			if ack.status != http.StatusServiceUnavailable || ack.resp != nil {
				t.Fatalf("queued request %d acked %+v, want 503", i, ack)
			}
		default:
			t.Fatalf("queued request %d was never answered", i)
		}
	}
	// A request arriving after Close is refused by its handler.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update",
		strings.NewReader(`[{"op":"settext","target":"1.1.1","value":"late"}]`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("update after Close: status %d, want 503", rec.Code)
	}
	srv.Close() // idempotent
	// The exiting goroutines may need a moment to be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	// Reads keep working on a closed server.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics after Close: %d", rec.Code)
	}
}

// TestFullCommitQueueAnswers503: with the committer parked and the queue
// holding commitQueueDepth requests, /update is refused at once with 503
// and Retry-After instead of parking its handler, and the queued requests
// still commit once the committer moves on.
func TestFullCommitQueueAnswers503(t *testing.T) {
	_, dir := newUpdatableServer(t, Config{ReadOnly: true}) // builds the store; starts no goroutine
	// GroupMax 1: the committer takes the parked request alone, so the
	// requests queued behind it stay queued.
	srv, err := New(Config{Dir: dir, GroupMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	parse := func(body string) *commitReq {
		ups, err := maintain.ParseUpdates([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return &commitReq{updates: ups, enq: time.Now(), done: make(chan commitAck, 1)}
	}
	// Park the committer inside an ack, as in
	// TestCloseRefusesQueueAndLeaksNothing.
	parked := parse(barrierUpdate)
	parked.done = make(chan commitAck)
	srv.commitQ <- parked
	for len(srv.commitQ) > 0 {
		time.Sleep(time.Millisecond) // until the committer has taken it
	}
	queued := make([]*commitReq, commitQueueDepth)
	for i := range queued {
		queued[i] = parse(fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"q%d"}]`, i))
		srv.commitQ <- queued[i]
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update",
		strings.NewReader(`[{"op":"settext","target":"1.1.1","value":"over"}]`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("update on a full queue: status %d, Retry-After %q; want 503 with the header: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}

	if ack := <-parked.done; ack.status != http.StatusUnprocessableEntity {
		t.Fatalf("parked request acked %d, want 422", ack.status)
	}
	for i, r := range queued {
		select {
		case ack := <-r.done:
			if ack.resp == nil {
				t.Fatalf("queued request %d acked %d (%s), want a commit", i, ack.status, ack.errMsg)
			}
		case <-time.After(time.Minute):
			t.Fatalf("queued request %d was never acked", i)
		}
	}
}

// TestHandlersCannotReachLiveStore is the runtime stand-in for "handlers
// cannot name the live store": nothing reachable from a Server through its
// own struct types is a *view.Store or a *store.Catalog. Those live in the
// committer, which the walker does flag.
func TestHandlersCannotReachLiveStore(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(view.Store{}):    true,
		reflect.TypeOf(store.Catalog{}): true,
	}
	own := reflect.TypeOf(Server{}).PkgPath()
	var walk func(t reflect.Type, path string, seen map[reflect.Type]bool, hits *[]string)
	walk = func(t reflect.Type, path string, seen map[reflect.Type]bool, hits *[]string) {
		if forbidden[t] {
			*hits = append(*hits, path)
			return
		}
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(t.Elem(), path, seen, hits)
		case reflect.Map:
			walk(t.Key(), path+"[key]", seen, hits)
			walk(t.Elem(), path, seen, hits)
		case reflect.Struct:
			if t.PkgPath() != own {
				return // another package's internals are not nameable here
			}
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				walk(f.Type, path+"."+f.Name, seen, hits)
			}
		}
	}
	var hits []string
	walk(reflect.TypeOf(Server{}), "Server", map[reflect.Type]bool{}, &hits)
	if len(hits) > 0 {
		t.Fatalf("Server reaches the live store or catalog through %v", hits)
	}
	hits = nil
	walk(reflect.TypeOf(committer{}), "committer", map[reflect.Type]bool{}, &hits)
	if len(hits) != 2 {
		t.Fatalf("walker found %v in committer, want its cat and st fields", hits)
	}
}

// TestCheckpointIsACommitterStep: the committer logs each group and leaves
// the document file alone until the log holds view.CheckpointEvery epochs;
// the checkpoint then runs after that group's acks — exactly once, exact
// after a barrier — and the durability gauges say so throughout.
func TestCheckpointIsACommitterStep(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{})
	// durability reads, from one scrape, the gauges a commit and a
	// checkpoint move.
	durability := func() (epoch, durable, doc, records, logBytes int64) {
		m := mustScrape(t, ts)
		return int64(m.get(t, "xvserve_epoch")), int64(m.get(t, "xvserve_durable_epoch")), int64(m.get(t, "xvserve_doc_epoch")),
			int64(m.get(t, "xvserve_update_log_records")), int64(m.get(t, "xvserve_update_log_bytes"))
	}
	if epoch, durable, doc, records, logBytes := durability(); epoch != 0 || durable != 0 || doc != 0 || records != 0 || logBytes != 0 {
		t.Fatalf("fresh store: epoch %d durable %d doc_epoch %d log records %d log bytes %d", epoch, durable, doc, records, logBytes)
	}
	for k := int64(1); k <= view.CheckpointEvery+2; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"n%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != k {
			t.Fatalf("update %d: status %d, epoch %d", k, code, up.Epoch)
		}
		barrier(t, ts)
		epoch, durable, doc, records, logBytes := durability()
		wantDoc := k / view.CheckpointEvery * view.CheckpointEvery
		if epoch != k || durable != k || doc != wantDoc || records != k-wantDoc {
			t.Fatalf("after update %d: epoch %d durable %d doc_epoch %d log records %d; want %d %d %d %d",
				k, epoch, durable, doc, records, k, k, wantDoc, k-wantDoc)
		}
		if logBytes != store.UpdateLogSize(dir) || (logBytes == 0) != (k == wantDoc) {
			t.Fatalf("after update %d: update log bytes %d, file has %d", k, logBytes, store.UpdateLogSize(dir))
		}
		cat, err := store.OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantSeg := view.DocSegmentName
		if wantDoc > 0 {
			wantSeg = fmt.Sprintf("document.c%04d.xvt", wantDoc)
		}
		if cat.Epoch != k || cat.DocEpoch != wantDoc || cat.DocSegment != wantSeg {
			t.Fatalf("after update %d: catalog epoch %d doc %s@%d, want %s@%d", k, cat.Epoch, cat.DocSegment, cat.DocEpoch, wantSeg, wantDoc)
		}
		if _, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment)); err != nil {
			t.Fatalf("after update %d: doc_segment unreadable: %v", k, err)
		}
	}
	m := mustScrape(t, ts)
	for name, want := range map[string]float64{
		"xvserve_doc_checkpoints_total":        1,
		"xvserve_doc_checkpoint_errors_total":  0,
		"xvserve_doc_checkpoint_seconds_count": 1,
		"xvserve_durable_epoch":                view.CheckpointEvery + 2,
		"xvserve_doc_epoch":                    view.CheckpointEvery,
		"xvserve_update_log_records":           2,
	} {
		if got := m.get(t, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestRestartMidLog: a daemon stopped with records in the update log (no
// checkpoint yet) restarts on the checkpoint plus a replay of the log — on
// its first update, since the document is attached lazily — and keeps
// committing on top, with answers equal to a rebuild of the document.
func TestRestartMidLog(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{})
	for k, body := range []string{
		`[{"op":"insert","parent":"1","subtree":"item(name \"dry\" price \"1\")"}]`,
		`[{"op":"settext","target":"1.1.1","value":"quill"}]`,
		`[{"op":"delete","target":"1.3"}]`,
	} {
		var up UpdateResponse
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != int64(k+1) {
			t.Fatalf("update %d: status %d, epoch %d", k+1, code, up.Epoch)
		}
	}
	ts.Close()
	if recs, _, tail, err := store.ReadUpdateLog(dir); err != nil || tail != nil || len(recs) != 3 {
		t.Fatalf("log at shutdown: %d record(s), tail %v, err %v", len(recs), tail, err)
	}

	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	m := mustScrape(t, ts2)
	for series, want := range map[string]float64{
		"xvserve_epoch": 3, "xvserve_durable_epoch": 3, "xvserve_doc_epoch": 0, "xvserve_update_log_records": 3,
	} {
		if got := m.get(t, series); got != want {
			t.Fatalf("restarted daemon: %s = %v, want %v", series, got, want)
		}
	}
	// Addressing a node the log inserted proves the replay ran: 1.5 exists
	// only in the replayed document.
	var up UpdateResponse
	if code := postUpdate(t, ts2, `[{"op":"settext","target":"1.5.1","value":"bone dry"}]`, &up); code != http.StatusOK || up.Epoch != 4 {
		t.Fatalf("update after restart: status %d, epoch %d", code, up.Epoch)
	}
	cat, st2, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Document().Root.String(); cat.Epoch != 4 || got != `site(item(name "quill" price "3") item(name "bone dry" price "1"))` {
		t.Fatalf("directory at epoch %d holds %s", cat.Epoch, got)
	}
	views, err := view.ViewsFromCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if got, want := st2.Relation(v).Clone(), view.MaterializeFlat(v, st2.Document()); !got.EqualAsSet(want) {
			t.Fatalf("extent of %s\n%swant rebuild\n%s", v.Name, got.Sorted(), want.Sorted())
		}
	}
}

// TestFailedCheckpointIsRetried: a checkpoint that cannot be written is
// counted, leaves the server healthy and the catalog naming the old,
// existing checkpoint, and is retried after the next group.
func TestFailedCheckpointIsRetried(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{})
	// A non-empty directory squats on the name the first checkpoint wants.
	squat := filepath.Join(dir, fmt.Sprintf("document.c%04d.xvt", view.CheckpointEvery))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= view.CheckpointEvery+1; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"n%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != k {
			t.Fatalf("update %d: status %d, epoch %d", k, code, up.Epoch)
		}
		if k < view.CheckpointEvery {
			continue
		}
		barrier(t, ts)
		m := mustScrape(t, ts)
		failed, wantDoc := 1.0, int64(0)
		if k > view.CheckpointEvery {
			wantDoc = k // the retry, under the next epoch's name
		}
		got, degraded, doc := m.get(t, "xvserve_doc_checkpoint_errors_total"), m.get(t, "xvserve_degraded"), m.get(t, "xvserve_doc_epoch")
		if got != failed || degraded != 0 || int64(doc) != wantDoc {
			t.Fatalf("after update %d: %v checkpoint error(s), degraded %v, doc epoch %v; want %v, 0, %d",
				k, got, degraded, doc, failed, wantDoc)
		}
		cat, err := store.OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment)); err != nil || cat.DocEpoch != wantDoc {
			t.Fatalf("after update %d: catalog doc %s@%d: %v", k, cat.DocSegment, cat.DocEpoch, err)
		}
	}
}
