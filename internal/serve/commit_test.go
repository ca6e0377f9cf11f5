package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// TestServeGroupCommitSurvivesClientDisconnect is the regression test for
// detached group commits: a client that disconnects while its request sits
// in a sealed (or sealing) group must get 499, but the group must still
// commit — cancelling the member request must not cancel work its
// groupmates depend on.
func TestServeGroupCommitSurvivesClientDisconnect(t *testing.T) {
	// A generous straggler window keeps the group open long enough for the
	// cancellation to land while the update is unambiguously in flight.
	ts, _ := newUpdatableServer(t, Config{GroupWait: 300 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	body := `[{"op":"insert","parent":"1","subtree":"item(name \"gone\" price \"5\")"}]`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/update", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("disconnected request answered %d", resp.StatusCode)
		}
		done <- err
	}()
	// Let the request reach the commit queue (the committer is holding the
	// group open for GroupWait), then walk away.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client Do: %v, want context cancellation", err)
	}

	// The committer must finish the group regardless: the epoch advances
	// and the insert is applied, even though nobody is listening.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		if st.Epoch == 1 && st.UpdatesApplied == 1 {
			if st.ClientDisconnects < 1 {
				t.Fatalf("disconnect not counted: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned group never committed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var resp QueryResponse
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("insert from the disconnected client not applied: %d rows", len(resp.Rows))
	}
}

// TestServeGroupCommitRejectsBadMemberOnly pins per-request validation
// under group commit: a malformed request merged into a group fails alone
// with 422 while its groupmates commit.
func TestServeGroupCommitRejectsBadMemberOnly(t *testing.T) {
	ts, _ := newUpdatableServer(t, Config{GroupWait: 300 * time.Millisecond})

	type outcome struct {
		code int
		up   UpdateResponse
	}
	bodies := []string{
		`[{"op":"insert","parent":"1","subtree":"item(name \"g1\" price \"1\")"}]`,
		`[{"op":"delete","target":"1.99"}]`, // no such node: must fail alone
		`[{"op":"insert","parent":"1","subtree":"item(name \"g2\" price \"2\")"}]`,
	}
	results := make([]outcome, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			results[i].code = postUpdate(t, ts, body, &results[i].up)
		}(i, body)
	}
	wg.Wait()

	if results[1].code != http.StatusUnprocessableEntity {
		t.Fatalf("bad member: status %d, want 422", results[1].code)
	}
	for _, i := range []int{0, 2} {
		if results[i].code != http.StatusOK {
			t.Fatalf("good member %d: status %d, want 200", i, results[i].code)
		}
		if results[i].up.Applied != 1 || results[i].up.GroupSize < 1 {
			t.Fatalf("good member %d response: %+v", i, results[i].up)
		}
	}

	// Both good inserts landed; the bad delete left no trace. The two good
	// requests may have merged into one group or committed as two.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != 2 {
		t.Fatalf("updates_applied = %d, want 2: %+v", st.UpdatesApplied, st)
	}
	epochs := map[int64]bool{results[0].up.Epoch: true, results[2].up.Epoch: true}
	if int(st.Epoch) != len(epochs) {
		t.Fatalf("epoch %d, want %d (one per group)", st.Epoch, len(epochs))
	}
	var resp QueryResponse
	q := url.QueryEscape(`site(/item[id](/name[v]))`)
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 initial + 2 inserted)", len(resp.Rows))
	}
}

// metricValue scrapes GET /metrics for one sample line and returns its
// value (0 if the family never fired).
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	return 0
}

// TestServeSoakGroupCommit is the race-enabled group-commit soak: 8
// concurrent HTTP writers push 200 update batches through the daemon while
// 3 readers query and scrape stats. It asserts the epoch advances exactly
// one per committed group (the acked epochs form a contiguous 1..E with no
// gaps), every ack matches its outcome, MVCC retention stays bounded, and
// the persisted store reopens with extents identical to a from-scratch
// rebuild of the final document.
func TestServeSoakGroupCommit(t *testing.T) {
	const (
		writers     = 8
		perWriter   = 25
		maxVersions = 4
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
	srv, err := New(Config{Dir: dir, PlanCacheSize: 16,
		GroupWait: time.Millisecond, MaxVersions: maxVersions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var (
		mu     sync.Mutex
		epochs []int64
	)
	done := make(chan struct{})
	errs := make(chan error, writers+8)
	var wg, writerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			last := int64(0)
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`[{"op":"insert","parent":"1","subtree":"item(name \"w%dn%d\" price \"%d\")"}]`, w, i, i%7)
				resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d batch %d: status %d: %s", w, i, resp.StatusCode, data)
					return
				}
				var up UpdateResponse
				if err := json.Unmarshal(data, &up); err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				// Acks must match outcomes: this writer's one update was
				// applied at the acked epoch, inside a plausible group.
				if up.Applied != 1 || up.Epoch <= last || up.GroupSize < 1 || up.GroupSize > writers {
					errs <- fmt.Errorf("writer %d batch %d: implausible ack %+v (last epoch %d)", w, i, up, last)
					return
				}
				last = up.Epoch
				mu.Lock()
				epochs = append(epochs, up.Epoch)
				mu.Unlock()
			}
		}(w)
	}

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := url.QueryEscape(`site(/item[id](/name[v]))`)
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := http.Get(ts.URL + "/query?q=" + q)
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query status %d: %s", r.StatusCode, data)
					return
				}
				var resp QueryResponse
				if err := json.Unmarshal(data, &resp); err != nil {
					errs <- err
					return
				}
				if resp.TotalRows < 1 || resp.TotalRows > 1+writers*perWriter {
					errs <- fmt.Errorf("implausible result: %d rows at epoch %d", resp.TotalRows, resp.Epoch)
					return
				}
				// MVCC retention must hold while readers pin snapshots.
				if v := int(metricValue(t, ts, "xvserve_store_versions")); v > maxVersions {
					errs <- fmt.Errorf("retention bound broken: %d versions (max %d)", v, maxVersions)
					return
				}
			}
		}()
	}

	writerWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Epoch contiguity: every member of a group is acked with the group's
	// epoch, so the acked epochs must cover exactly 1..E with no gaps — the
	// epoch advanced precisely one per committed group.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != writers*perWriter {
		t.Fatalf("updates_applied = %d, want %d", st.UpdatesApplied, writers*perWriter)
	}
	distinct := map[int64]bool{}
	for _, e := range epochs {
		distinct[e] = true
	}
	if int64(len(distinct)) != st.Epoch {
		t.Fatalf("%d distinct acked epochs but final epoch %d", len(distinct), st.Epoch)
	}
	for e := int64(1); e <= st.Epoch; e++ {
		if !distinct[e] {
			t.Fatalf("epoch %d skipped (final epoch %d)", e, st.Epoch)
		}
	}
	if groups := metricValue(t, ts, "xvserve_group_commits_total"); int64(groups) != st.Epoch {
		t.Fatalf("group_commits_total %v, want %d (one per epoch)", groups, st.Epoch)
	}
	if n := metricValue(t, ts, "xvserve_commit_group_size_count"); int64(n) != st.Epoch {
		t.Fatalf("group size histogram observed %v groups, want %d", n, st.Epoch)
	}
	if sum := metricValue(t, ts, "xvserve_commit_group_size_sum"); int(sum) != writers*perWriter {
		t.Fatalf("group size histogram sum %v, want %d (every request in exactly one group)", sum, writers*perWriter)
	}
	if st.Epoch >= writers*perWriter {
		t.Logf("warning: no batching happened (epoch %d for %d requests)", st.Epoch, writers*perWriter)
	}
	finalEpoch := st.Epoch
	srv.Close() // flush the committer before inspecting the directory

	// Reopen parity: the persisted store must match a from-scratch rebuild
	// over the final document.
	cat, st2, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epoch != finalEpoch {
		t.Fatalf("persisted epoch %d, want %d", cat.Epoch, finalEpoch)
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
