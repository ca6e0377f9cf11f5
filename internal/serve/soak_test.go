package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// TestServeUpdateStatusCodesPinned pins the /update error contract: client
// mistakes (malformed JSON, empty batches, unresolvable targets, bad
// labels) are 4xx, size limits 413, read-only 403; 5xx is reserved for
// persistence failures (covered by TestServeDegradedOnPersistFailure).
func TestServeUpdateStatusCodesPinned(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{})
	small, _ := newUpdatableServer(t, Config{MaxUpdateBytes: 64})
	ro, _ := newUpdatableServer(t, Config{ReadOnly: true})

	cases := []struct {
		name string
		ts   *httptest.Server
		body string
		want int
	}{
		{"malformed JSON", ts, `not json`, http.StatusBadRequest},
		{"empty batch", ts, `{"updates":[]}`, http.StatusBadRequest},
		{"empty array", ts, `[]`, http.StatusBadRequest},
		{"unknown op", ts, `[{"op":"zap","target":"1.1"}]`, http.StatusBadRequest},
		{"malformed target id", ts, `[{"op":"delete","target":"1.x"}]`, http.StatusBadRequest},
		{"unknown delete target", ts, `[{"op":"delete","target":"1.99"}]`, http.StatusUnprocessableEntity},
		{"unknown settext target", ts, `[{"op":"settext","target":"1.99","value":"v"}]`, http.StatusUnprocessableEntity},
		{"unknown insert parent", ts, `[{"op":"insert","parent":"1.99","subtree":"x"}]`, http.StatusUnprocessableEntity},
		{"delete of the root", ts, `[{"op":"delete","target":"1"}]`, http.StatusUnprocessableEntity},
		{"oversized batch", small, `[{"op":"insert","parent":"1","subtree":"` + strings.Repeat("x", 200) + `"}]`, http.StatusRequestEntityTooLarge},
		{"read-only server", ro, `[{"op":"delete","target":"1.1"}]`, http.StatusForbidden},
	}
	for _, tc := range cases {
		var e errorResponse
		if code := postUpdate(t, tc.ts, tc.body, &e); code != tc.want {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, code, tc.want, e)
		}
	}
	// None of the rejected batches may have advanced any epoch.
	for _, srv := range []*httptest.Server{ts, small, ro} {
		m := mustScrape(t, srv)
		if m.get(t, "xvserve_epoch") != 0 || m.get(t, "xvserve_updates_applied_total") != 0 {
			t.Fatalf("rejected batches advanced the epoch to %v", m["xvserve_epoch"])
		}
	}
}

// TestServeSoakAutoCompaction is the race-enabled soak: hundreds of update
// batches stream through the daemon while readers query concurrently. It
// asserts epochs advance strictly one per batch, the update log stays
// bounded by the checkpoint policy (the background step that replaced
// compaction), the checkpoint actually runs mid-stream, and the persisted
// store reopens with extents identical to a from-scratch rebuild of the
// final document.
func TestServeSoakAutoCompaction(t *testing.T) {
	const batches = view.CheckpointEvery + 44
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "n0" price "1"))`)
	views := []*core.View{
		{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
		{Name: "vprice", Pattern: pattern.MustParse(`site(//price[id,v])`), DerivableParentIDs: true},
	}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	// Tracing and slow-request logging run at full throttle during the
	// soak: observability must not perturb the pipeline under race.
	srv, err := New(Config{Dir: dir, PlanCacheSize: 16,
		SlowQuery: time.Nanosecond, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	errs := make(chan error, 16)

	// Writer: sequential batches; every response's epoch must be exactly
	// one past the previous (epochs never skip, never repeat).
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			var body string
			switch i % 3 {
			case 0:
				body = fmt.Sprintf(`[{"op":"insert","parent":"1","subtree":"item(name \"n%d\" price \"%d\")"}]`, i+1, i%7)
			case 1:
				body = fmt.Sprintf(`[{"op":"settext","target":"1.1.3","value":"%d"}]`, i)
			default:
				body = fmt.Sprintf(`[{"op":"settext","target":"1.1.1","value":"m%d"}]`, i)
			}
			resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("batch %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var up UpdateResponse
			if err := json.Unmarshal(data, &up); err != nil {
				errs <- fmt.Errorf("batch %d: %v", i, err)
				return
			}
			if up.Epoch != int64(i+1) {
				errs <- fmt.Errorf("batch %d: epoch %d, want %d (skipped or repeated)", i, up.Epoch, i+1)
				return
			}
		}
	}()

	// Readers: query and watch /metrics while the writer runs; the log never
	// outgrows the checkpoint policy. Failures go through errs — t.Fatal
	// must not be called off the test goroutine.
	fetch := func(url string, out any) error {
		r, err := http.Get(url)
		if err != nil {
			return err
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			return err
		}
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", url, r.StatusCode, data)
		}
		return json.Unmarshal(data, out)
	}
	var wg sync.WaitGroup
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp QueryResponse
				if err := fetch(ts.URL+"/query?trace=1&q="+q, &resp); err != nil {
					errs <- err
					return
				}
				if resp.TotalRows < 1 {
					errs <- fmt.Errorf("implausible result: %+v", resp)
					return
				}
				if resp.Trace == nil || len(resp.Trace.Spans) == 0 {
					errs <- fmt.Errorf("traced query returned no spans: %+v", resp.Trace)
					return
				}
				m, err := scrape(ts.URL)
				if err != nil {
					errs <- err
					return
				}
				if n, ok := m["xvserve_update_log_records"]; !ok || n > view.CheckpointEvery {
					errs <- fmt.Errorf("log ran away: %v record(s) (present %v)", n, ok)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every batch is acked, so the checkpoint at CheckpointEvery has run:
	// the log holds exactly the epochs after it.
	m := mustScrape(t, ts)
	for series, want := range map[string]float64{
		"xvserve_epoch":                       batches,
		"xvserve_updates_applied_total":       batches,
		"xvserve_doc_epoch":                   view.CheckpointEvery,
		"xvserve_update_log_records":          batches - view.CheckpointEvery,
		"xvserve_degraded":                    0,
		"xvserve_doc_checkpoint_errors_total": 0,
	} {
		if got := m.get(t, series); got != want {
			t.Errorf("final %s = %v, want %v", series, got, want)
		}
	}
	srv.Close() // stop the committer before inspecting the directory

	// The persisted store must reopen (epoch preserved, log replayable)
	// with extents identical to re-materializing every view over the final
	// persisted document.
	cat, st2, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epoch != batches {
		t.Fatalf("persisted epoch %d, want %d", cat.Epoch, batches)
	}
	final := st2.Document()
	for _, v := range views {
		want := view.MaterializeFlat(v, final)
		if got := st2.Relation(v).Clone(); !got.EqualAsSet(want) {
			t.Fatalf("persisted extent of %s diverges from rebuild\nstore:\n%s\nrebuild:\n%s",
				v.Name, got.Sorted(), want.Sorted())
		}
	}
}
