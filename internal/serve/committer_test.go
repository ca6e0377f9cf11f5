package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
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
// commits and compactions in turn, its ack also proves that every step the
// previous group triggered (compaction included) has finished.
const barrierUpdate = `[{"op":"settext","target":"1.99.1","value":"x"}]`

func barrier(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var e errorResponse
	if code := postUpdate(t, ts, barrierUpdate, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("barrier update: status %d (%s), want 422 from the committer", code, e.Error)
	}
}

// longestChain reads the longest delta chain from the directory's catalog.
func longestChain(t *testing.T, dir string) int {
	t.Helper()
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, e := range cat.Views {
		if len(e.Deltas) > longest {
			longest = len(e.Deltas)
		}
	}
	return longest
}

// TestCompactionIsACommitterStep: with a chain threshold of 2 and
// sequential acked updates that each extend one view's chain, compaction
// runs after exactly every second commit. Nothing is polled: the counts
// are exact after each barrier.
func TestCompactionIsACommitterStep(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{CompactMaxChain: 2})
	for k := 1; k <= 7; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"n%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != int64(k) {
			t.Fatalf("update %d: status %d, epoch %d", k, code, up.Epoch)
		}
		barrier(t, ts)
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		if st.Compactions != int64(k/2) || st.DeltaSegmentsFolded != int64(2*(k/2)) || st.CompactErrors != 0 {
			t.Fatalf("after update %d: compactions_run %d, delta_segments_folded %d, compact_errors %d; want %d, %d, 0",
				k, st.Compactions, st.DeltaSegmentsFolded, st.CompactErrors, k/2, 2*(k/2))
		}
		if st.MaxDeltaChain != int64(k%2) {
			t.Fatalf("after update %d: max_delta_chain %d, want %d", k, st.MaxDeltaChain, k%2)
		}
		if got := longestChain(t, dir); got != k%2 {
			t.Fatalf("after update %d: longest catalog chain %d, want %d", k, got, k%2)
		}
	}
}

// TestFailedCompactionIsLogged: a compaction that cannot read its chain is
// counted and logged at ERROR with the error and the longest chain, leaves
// the server healthy, and updates keep committing.
func TestFailedCompactionIsLogged(t *testing.T) {
	buf := &syncBuffer{}
	ts, dir := newUpdatableServer(t, Config{CompactMaxChain: 2, Logger: slog.New(slog.NewJSONHandler(buf, nil))})
	var up UpdateResponse
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.1.1","value":"n1"}]`, &up); code != http.StatusOK {
		t.Fatalf("update 1: status %d", code)
	}
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := cat.Entry("vname")
	if len(e.Deltas) != 1 {
		t.Fatalf("vname chain %+v, want one delta", e.Deltas)
	}
	if err := os.Remove(filepath.Join(dir, e.Deltas[0].Segment)); err != nil {
		t.Fatal(err)
	}
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.1.1","value":"n2"}]`, &up); code != http.StatusOK || up.Epoch != 2 {
		t.Fatalf("update 2: status %d, epoch %d", code, up.Epoch)
	}
	barrier(t, ts) // the chain reached 2: the failed compaction has run
	if got := metricValue(t, ts, "xvserve_compact_errors_total"); got != 1 {
		t.Fatalf("xvserve_compact_errors_total = %v, want 1", got)
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
	if msg, _ := errs[0]["msg"].(string); !strings.Contains(msg, "compaction failed") ||
		!strings.Contains(fmt.Sprint(errs[0]["error"]), e.Deltas[0].Segment) || errs[0]["longest_chain"] != 2.0 {
		t.Fatalf("compaction failure logged as %v", errs[0])
	}
	if code := postUpdate(t, ts, `[{"op":"settext","target":"1.3.1","value":"n3"}]`, &up); code != http.StatusOK || up.Epoch != 3 {
		t.Fatalf("update after the failed compaction: status %d, epoch %d", code, up.Epoch)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Degraded || st.DurableEpoch != 3 {
		t.Fatalf("after the failed compaction: degraded %v, durable_epoch %d", st.Degraded, st.DurableEpoch)
	}
}

// TestOverThresholdStoreFoldedBeforeFirstCommit: a store opened with chains
// already over the threshold is compacted before the first update commits,
// so that update's delta lands on the fresh base instead of being folded
// with the old chain.
func TestOverThresholdStoreFoldedBeforeFirstCommit(t *testing.T) {
	ts, dir := newUpdatableServer(t, Config{CompactDisabled: true})
	for k := 1; k <= 3; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"old%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK {
			t.Fatalf("seeding update %d: status %d", k, code)
		}
	}
	if got := longestChain(t, dir); got != 3 {
		t.Fatalf("seeded chain %d, want 3", got)
	}

	srv, err := New(Config{Dir: dir, CompactMaxChain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	var up UpdateResponse
	if code := postUpdate(t, ts2, `[{"op":"settext","target":"1.1.1","value":"new"}]`, &up); code != http.StatusOK || up.Epoch != 4 {
		t.Fatalf("first update: status %d, epoch %d", code, up.Epoch)
	}
	var st Stats
	getJSON(t, ts2.URL+"/stats", &st)
	if st.Compactions != 1 || st.DeltaSegmentsFolded != 3 || st.MaxDeltaChain != 1 {
		t.Fatalf("compactions_run %d, delta_segments_folded %d, max_delta_chain %d; want 1, 3, 1 (fold first, then commit)",
			st.Compactions, st.DeltaSegmentsFolded, st.MaxDeltaChain)
	}
	if got := longestChain(t, dir); got != 1 {
		t.Fatalf("longest catalog chain %d, want 1", got)
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
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats after Close: %d", rec.Code)
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
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Epoch != 0 || st.DurableEpoch != 0 || st.DocEpoch != 0 || st.UpdateLogRecords != 0 || st.UpdateLogBytes != 0 {
		t.Fatalf("fresh store: %+v", st)
	}
	for k := int64(1); k <= view.CheckpointEvery+2; k++ {
		var up UpdateResponse
		body := fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"n%d"}]`, k)
		if code := postUpdate(t, ts, body, &up); code != http.StatusOK || up.Epoch != k {
			t.Fatalf("update %d: status %d, epoch %d", k, code, up.Epoch)
		}
		barrier(t, ts)
		getJSON(t, ts.URL+"/stats", &st)
		wantDoc := k / view.CheckpointEvery * view.CheckpointEvery
		if st.Epoch != k || st.DurableEpoch != k || st.DocEpoch != wantDoc || st.UpdateLogRecords != k-wantDoc {
			t.Fatalf("after update %d: epoch %d durable %d doc_epoch %d log records %d; want %d %d %d %d",
				k, st.Epoch, st.DurableEpoch, st.DocEpoch, st.UpdateLogRecords, k, k, wantDoc, k-wantDoc)
		}
		if st.UpdateLogBytes != store.UpdateLogSize(dir) || (st.UpdateLogBytes == 0) != (k == wantDoc) {
			t.Fatalf("after update %d: update_log_bytes %d, file has %d", k, st.UpdateLogBytes, store.UpdateLogSize(dir))
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
	for name, want := range map[string]float64{
		"xvserve_doc_checkpoints_total":        1,
		"xvserve_doc_checkpoint_errors_total":  0,
		"xvserve_doc_checkpoint_seconds_count": 1,
		"xvserve_durable_epoch":                view.CheckpointEvery + 2,
		"xvserve_doc_epoch":                    view.CheckpointEvery,
		"xvserve_update_log_records":           2,
	} {
		if got := metricValue(t, ts, name); got != want {
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
	var st Stats
	getJSON(t, ts2.URL+"/stats", &st)
	if st.Epoch != 3 || st.DurableEpoch != 3 || st.DocEpoch != 0 || st.UpdateLogRecords != 3 {
		t.Fatalf("restarted daemon: epoch %d durable %d doc_epoch %d log records %d", st.Epoch, st.DurableEpoch, st.DocEpoch, st.UpdateLogRecords)
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
		if got, want := st2.Relation(v), view.MaterializeFlat(v, st2.Document()); !got.EqualAsSet(want) {
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
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		failed, wantDoc := 1.0, int64(0)
		if k > view.CheckpointEvery {
			wantDoc = k // the retry, under the next epoch's name
		}
		if got := metricValue(t, ts, "xvserve_doc_checkpoint_errors_total"); got != failed || st.Degraded || st.DocEpoch != wantDoc {
			t.Fatalf("after update %d: %v checkpoint error(s), degraded %v, doc_epoch %d; want %v, false, %d",
				k, got, st.Degraded, st.DocEpoch, failed, wantDoc)
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
