package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The plan and containment caches live as long as the summary's shape:
// a commit that keeps it carries them into the new epoch (hits only redo
// the cost pick), a commit that changes it drops them. These tests pin
// both halves against a shadow copy of the document, which yields the
// node identifiers the daemon allocates (both run the same xmltree code).

// shadowServer is a served store plus the test's copy of its document.
type shadowServer struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
	dir string
	doc *xmltree.Document
}

func newShadowServer(t *testing.T, src string, views []*core.View) *shadowServer {
	t.Helper()
	dir := t.TempDir()
	if _, err := view.BuildStore(dir, xmltree.MustParseParen(src), views); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &shadowServer{t: t, srv: srv, ts: ts, dir: dir, doc: xmltree.MustParseParen(src)}
}

// post applies one update to the shadow document, commits it on the
// server and returns the node the update created or changed.
func (s *shadowServer) post(u xmltree.Update) *xmltree.Node {
	s.t.Helper()
	node, err := s.doc.ApplyUpdate(u)
	if err != nil {
		s.t.Fatalf("shadow rejected %s: %v", u.Kind, err)
	}
	body, err := maintain.EncodeUpdates([]xmltree.Update{u})
	if err != nil {
		s.t.Fatal(err)
	}
	var up UpdateResponse
	if code := postUpdate(s.t, s.ts, string(body), &up); code != http.StatusOK {
		s.t.Fatalf("%s: status %d: %s", u.Kind, code, body)
	}
	return node
}

// shape renders the committed catalog summary without statistics: the
// part of it rewriting and containment depend on.
func (s *shadowServer) shape() string {
	s.t.Helper()
	cat, err := store.OpenCatalog(s.dir)
	if err != nil {
		s.t.Fatal(err)
	}
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		s.t.Fatal(err)
	}
	return sum.String()
}

func insertUnder(parent *xmltree.Node, src string) xmltree.Update {
	return xmltree.Update{Kind: xmltree.UpdateInsert, Parent: parent.ID, Subtree: xmltree.MustParseParen(src)}
}

func deleteNode(n *xmltree.Node) xmltree.Update {
	return xmltree.Update{Kind: xmltree.UpdateDelete, Target: n.ID}
}

// TestStrongEdgeFlipDropsCachedPlan serves the paper's strong-edge
// ablation: the name view answers a query that also asks for mail only
// while the summary records that every item has one. An insert that keeps
// the edge strong keeps the cached plan; an item without mail unmarks the
// edge and must drop it (422, not the cached plan); deleting that item
// marks the edge strong again.
func TestStrongEdgeFlipDropsCachedPlan(t *testing.T) {
	s := newShadowServer(t, `site(item(name "pen" mail "a") item(name "ink" mail "b"))`, []*core.View{
		{Name: "items", Pattern: pattern.MustParse(`site(//item[id](/name[v]))`), DerivableParentIDs: true},
	})
	q := s.ts.URL + "/query?q=" + url.QueryEscape(`site(//item[id](/name[v] /mail))`)
	answer := func(rows int, cached bool) {
		t.Helper()
		var r QueryResponse
		if code := getJSON(t, q, &r); code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
		if len(r.Rows) != rows || r.PlanCached != cached {
			t.Fatalf("%d rows, plan_cached %v; want %d, %v", len(r.Rows), r.PlanCached, rows, cached)
		}
	}
	answer(2, false)
	answer(2, true)

	s.post(insertUnder(s.doc.Root, `item(name "nib" mail "c")`))
	answer(3, true) // every item still has mail: same shape, cache kept

	dry := s.post(insertUnder(s.doc.Root, `item(name "dry")`))
	var e errorResponse
	if code := getJSON(t, q, &e); code != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "no equivalent rewriting") {
		t.Fatalf("after an item without mail: status %d %q, want 422 no equivalent rewriting", code, e.Error)
	}

	s.post(deleteNode(dry))
	answer(3, false)

	if n := s.srv.met.invalidations.Value(); n != 2 {
		t.Fatalf("cache invalidations = %d, want 2 (edge unmarked, edge marked)", n)
	}
}

// TestRepickIsTraced: a hit whose pick was made under an older estimator
// redoes the pick, and shows it as a miss does — a cost span on the request
// trace and one xvserve_cost_seconds observation — so trace=1 explains why
// a cached plan's cost moved between epochs. A hit under the estimator its
// pick was made under does neither.
func TestRepickIsTraced(t *testing.T) {
	s := newShadowServer(t, carryDoc, carryViews)
	q := s.ts.URL + "/query?trace=1&q=" + url.QueryEscape(`site(/item[id](/name[v] /price[v]))`)
	costSpans := func(wantCached bool) int64 {
		t.Helper()
		before := s.srv.met.costSeconds.Count()
		var r QueryResponse
		if code := getJSON(t, q, &r); code != http.StatusOK || r.PlanCached != wantCached || r.Trace == nil {
			t.Fatalf("status %d, plan_cached %v, trace %v; want 200, %v, a trace", code, r.PlanCached, r.Trace, wantCached)
		}
		var spans int64
		for _, sp := range r.Trace.Spans {
			if sp.Name == "cost" {
				spans++
			}
		}
		if observed := s.srv.met.costSeconds.Count() - before; observed != spans {
			t.Fatalf("%d cost spans but %d xvserve_cost_seconds observations", spans, observed)
		}
		return spans
	}
	if n := costSpans(false); n != 1 {
		t.Fatalf("miss: %d cost spans, want 1", n)
	}
	if n := costSpans(true); n != 0 {
		t.Fatalf("hit under the same estimator: %d cost spans, want 0", n)
	}
	s.post(xmltree.Update{Kind: xmltree.UpdateSetValue, Target: s.doc.Root.Children[0].Children[0].ID, Value: "z"})
	if n := costSpans(true); n != 1 {
		t.Fatalf("first hit after a shape-preserving commit: %d cost spans, want 1 (the re-pick)", n)
	}
	if n := costSpans(true); n != 0 {
		t.Fatalf("second hit in the same epoch: %d cost spans, want 0", n)
	}
}

// carryViews and carryPool are the contract tests' views and query pool:
// a scan, a value selection, a two-view join, a query whose rewriting over
// the name view exists only while item→mail is strong, and a query
// unsatisfiable under every summary the update sequence produces.
var carryViews = []*core.View{
	{Name: "vname", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true},
	{Name: "vprice", Pattern: pattern.MustParse(`site(/item[id](/price[v]))`), DerivableParentIDs: true},
	{Name: "vmail", Pattern: pattern.MustParse(`site(/item[id](/mail[v]))`), DerivableParentIDs: true},
}

var carryPool = []string{
	`site(/item[id](/name[v]))`,
	`site(/item[id](/name[v]{v="a1"}))`,
	`site(/item[id](/name[v] /price[v]))`,
	`site(/item[id](/name[v] /mail))`,
	`site(/item[id](/zip[v]))`,
}

const carryDoc = `site(item(name "a0" price "1" mail "m0") item(name "a1" price "2") item(name "a2" price "3"))`

// carrySteps is the length of the contract tests' update sequence.
const carrySteps = 64

// randomUpdate draws one single-op update against the shadow document: a
// settext, an insert under existing paths, or an insert/delete that can
// add or prune the mail path or flip an edge flag (item→mail strong,
// item→name one-to-one). Every item keeps a name and a price.
func randomUpdate(rng *rand.Rand, doc *xmltree.Document, step int) xmltree.Update {
	items := doc.Root.Children
	it := items[rng.Intn(len(items))]
	labeled := func(label string) []*xmltree.Node {
		var out []*xmltree.Node
		for _, c := range it.Children {
			if c.Label == label {
				out = append(out, c)
			}
		}
		return out
	}
	switch rng.Intn(6) {
	case 0:
		return xmltree.Update{Kind: xmltree.UpdateSetValue, Target: labeled("name")[0].ID, Value: fmt.Sprintf("a%d", step%4)}
	case 1:
		return insertUnder(doc.Root, fmt.Sprintf(`item(name "a%d" price "%d")`, step%4, step))
	case 2:
		if mails := labeled("mail"); len(mails) > 0 {
			return deleteNode(mails[len(mails)-1])
		}
		return insertUnder(it, fmt.Sprintf(`mail "m%d"`, step))
	case 3:
		return insertUnder(it, fmt.Sprintf(`mail "m%d"`, step))
	case 4:
		if len(items) > 2 {
			return deleteNode(it)
		}
		return insertUnder(doc.Root, fmt.Sprintf(`item(name "a%d" price "%d" mail "m%d")`, step%4, step, step))
	default:
		if names := labeled("name"); len(names) > 1 {
			return deleteNode(names[len(names)-1])
		}
		return insertUnder(it, fmt.Sprintf(`name "b%d"`, step))
	}
}

// outcome is a query's answer reduced to what the cache decides: the
// status, and for a 200 the plan, its cost and the alternatives count.
type outcome struct {
	status int
	plan   string
	cost   float64
	alts   int
}

// served asks the daemon to explain q.
func (s *shadowServer) served(q string) (outcome, bool) {
	s.t.Helper()
	var ex ExplainResponse
	code := getJSON(s.t, s.ts.URL+"/query?explain=1&q="+url.QueryEscape(q), &ex)
	return outcome{code, ex.Plan, ex.Cost, ex.Alternatives}, ex.PlanCached
}

// fresh runs the search the daemon would run on a miss, against the
// current epoch's estimator but the committed catalog's summary and an
// empty containment cache. It also returns every equivalent rewriting, so
// callers that cannot pin the estimator can check plan membership.
func (s *shadowServer) fresh(q string) (outcome, map[string]bool) {
	s.t.Helper()
	es := s.srv.snapshot()
	defer es.st.Release()
	cat, err := store.OpenCatalog(s.dir)
	if err != nil {
		s.t.Fatal(err)
	}
	if es.sum, err = summary.Parse(cat.Summary); err != nil {
		s.t.Fatal(err)
	}
	es.subsume = core.NewSubsumeCache(0)
	v, err := s.srv.rewriteBest(context.Background(), pattern.MustParse(q), es)
	if err != nil {
		s.t.Fatal(err)
	}
	if v.plan == nil {
		return outcome{status: http.StatusUnprocessableEntity}, nil
	}
	plans := map[string]bool{}
	for _, p := range v.res.Rewritings {
		plans[p.String()] = true
	}
	return outcome{http.StatusOK, v.plan.String(), v.cost, v.alternatives}, plans
}

// TestCarriedVerdictEqualsFreshSearch is the caches' contract: after every
// commit of a seeded update sequence, each pool query's served verdict —
// carried or recomputed — equals a fresh search's, and searches run only
// after commits that changed the summary's shape.
func TestCarriedVerdictEqualsFreshSearch(t *testing.T) {
	s := newShadowServer(t, carryDoc, carryViews)
	for _, q := range carryPool {
		s.served(q) // warm: the sequence below counts searches from here
	}
	rng := rand.New(rand.NewSource(7))
	var searches, shapeChanges, kept int64
	prev := s.shape()
	for step := 0; step < carrySteps; step++ {
		u := randomUpdate(rng, s.doc, step)
		s.post(u)
		cur := s.shape()
		changed := cur != prev
		prev = cur
		if changed {
			shapeChanges++
		} else {
			kept++
		}
		for _, q := range carryPool {
			before := s.srv.met.rewritesRun.Value()
			got, cached := s.served(q)
			ran := s.srv.met.rewritesRun.Value() - before
			searches += ran
			want, _ := s.fresh(q)
			if got != want {
				t.Fatalf("step %d (%s, shape changed %v) %s: served %+v, fresh search %+v", step, u.Kind, changed, q, got, want)
			}
			if (ran == 1) != changed || (got.status == http.StatusOK && cached == changed) {
				t.Fatalf("step %d (%s, shape changed %v) %s: %d searches, plan_cached %v", step, u.Kind, changed, q, ran, cached)
			}
		}
	}
	t.Logf("%d shape-changing and %d shape-preserving commits, %d searches", shapeChanges, kept, searches)
	if shapeChanges < 8 || kept < 8 {
		t.Fatalf("sequence exercises too little: %d shape-changing, %d shape-preserving commits", shapeChanges, kept)
	}
	if want := shapeChanges * int64(len(carryPool)); searches != want {
		t.Fatalf("searches run = %d, want %d (%d shape-changing commits × %d queries)", searches, want, shapeChanges, len(carryPool))
	}
	if n := s.srv.met.invalidations.Value(); n != shapeChanges {
		t.Fatalf("cache invalidations = %d, want %d", n, shapeChanges)
	}
}

// TestCarriedCachesUnderConcurrentReaders runs four readers over the pool
// while the contract test's update sequence commits (run with -race), so
// flights and re-picks span publishes. No request may fail, and every
// answer must be a verdict of the epoch it was served at: a request served
// from a cache dropped by a shape change would answer with another shape's
// verdict. A 200 names its epoch; a 422 does not, so it must match some
// epoch published while it was in flight. Costs are not compared: an epoch
// has two estimators (published on apply, refreshed once durable), so the
// pick may differ between them, but it is always one of the epoch's
// rewritings.
func TestCarriedCachesUnderConcurrentReaders(t *testing.T) {
	s := newShadowServer(t, carryDoc, carryViews)
	type answer struct {
		q, status int
		lo, hi    int64 // epochs published before the request and after its answer
		epoch     int64 // the 200's reported epoch
		plan      string
	}
	type expected struct {
		status int
		plans  map[string]bool
	}
	want := map[int64][]expected{}
	record := func() {
		epoch := s.srv.epoch()
		for _, q := range carryPool {
			v, plans := s.fresh(q)
			want[epoch] = append(want[epoch], expected{v.status, plans})
		}
	}
	record()

	done := make(chan struct{})
	var wg sync.WaitGroup
	answers := make([][]answer, 4)
	errs := make(chan error, len(answers))
	for r := range answers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				a := answer{q: (i + r) % len(carryPool), lo: s.srv.epoch()}
				u := s.ts.URL + "/query?q=" + url.QueryEscape(carryPool[a.q])
				if i%2 == 0 {
					u += "&explain=1"
				}
				resp, err := http.Get(u)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				a.hi, a.status = s.srv.epoch(), resp.StatusCode
				var ex ExplainResponse
				if err == nil && a.status == http.StatusOK {
					err = json.Unmarshal(body, &ex)
				} else if err == nil && a.status != http.StatusUnprocessableEntity {
					err = fmt.Errorf("status %d: %s", a.status, body)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %v", carryPool[a.q], err)
					return
				}
				a.epoch, a.plan = ex.Epoch, ex.Plan
				answers[r] = append(answers[r], a)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < carrySteps; step++ {
		s.post(randomUpdate(rng, s.doc, step))
		record()
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, refused := 0, 0
	for _, as := range answers {
		for _, a := range as {
			n++
			if a.status == http.StatusOK {
				exp := want[a.epoch][a.q]
				if a.epoch < a.lo || a.epoch > a.hi || exp.status != http.StatusOK || !exp.plans[a.plan] {
					t.Fatalf("%s served %q at epoch %d (in flight over epochs %d–%d); that epoch's search gives status %d, rewritings %v",
						carryPool[a.q], a.plan, a.epoch, a.lo, a.hi, exp.status, exp.plans)
				}
				continue
			}
			refused++
			ok := false
			for e := a.lo; e <= a.hi; e++ {
				ok = ok || want[e][a.q].status == http.StatusUnprocessableEntity
			}
			if !ok {
				t.Fatalf("%s answered 422 in flight over epochs %d–%d, where every search finds a rewriting", carryPool[a.q], a.lo, a.hi)
			}
		}
	}
	t.Logf("%d answers (%d refused with 422) over %d commits", n, refused, carrySteps)
	if n < carrySteps {
		t.Fatalf("readers answered only %d requests during %d commits", n, carrySteps)
	}
}
