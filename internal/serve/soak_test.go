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
		var st Stats
		getJSON(t, srv.URL+"/stats", &st)
		if st.Epoch != 0 || st.UpdatesApplied != 0 {
			t.Fatalf("rejected batches advanced the epoch: %+v", st)
		}
	}
}

// TestServeSoakAutoCompaction is the race-enabled soak: hundreds of update
// batches stream through the daemon while readers query concurrently. It
// asserts epochs advance strictly one per batch, delta chains stay bounded
// by the auto-compaction policy, the compactor actually runs, and the
// persisted store reopens with extents identical to a from-scratch rebuild
// of the final document.
func TestServeSoakAutoCompaction(t *testing.T) {
	const (
		batches   = 200
		threshold = 4
	)
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
	srv, err := New(Config{Dir: dir, PlanCacheSize: 16, CompactMaxChain: threshold,
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

	// Readers: query and watch /stats while the writer runs. Chains may
	// transiently overshoot the threshold (the compactor is asynchronous),
	// but never run away. Failures go through errs — t.Fatal must not be
	// called off the test goroutine.
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
				var st Stats
				if err := fetch(ts.URL+"/stats", &st); err != nil {
					errs <- err
					return
				}
				if st.MaxDeltaChain > threshold+32 {
					errs <- fmt.Errorf("delta chain ran away: %d (threshold %d)", st.MaxDeltaChain, threshold)
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

	// Quiesce: let any pending compaction finish, then check the policy
	// held. The final chains must sit under the threshold, the compactor
	// must have run, and nothing may have failed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		if st.MaxDeltaChain < threshold {
			if st.Compactions < 1 || st.DeltaSegmentsFolded < 1 {
				t.Fatalf("compactor never ran: %+v", st)
			}
			if st.CompactErrors != 0 {
				t.Fatalf("compaction errors: %+v", st)
			}
			if st.Epoch != batches || st.UpdatesApplied != batches {
				t.Fatalf("final epoch %d / updates %d, want %d", st.Epoch, st.UpdatesApplied, batches)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chains never drained under the threshold: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Close() // stop the compactor before inspecting the directory

	// The persisted store must reopen (epoch preserved, chains replayable)
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
		if got := st2.Relation(v); !got.EqualAsSet(want) {
			t.Fatalf("persisted extent of %s diverges from rebuild\nstore:\n%s\nrebuild:\n%s",
				v.Name, got.Sorted(), want.Sorted())
		}
	}
}
