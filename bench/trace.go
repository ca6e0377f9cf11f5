package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/datagen"
	"xmlviews/internal/maintain"
	"xmlviews/internal/pattern"
	"xmlviews/internal/serve"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The traced pass: the harness opens its own store in-process and replays
// the workload's request stream layer by layer, timing each call into a
// layer's public functions from here. The daemon is not instrumented by
// this change; end-to-end numbers never come from this pass.

// span is one timed call. Spans of one request share Request (0: none, the
// set-up pipeline and compactions); Parent is the index of the enclosing
// span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans and the counts taken at the same boundaries in memory;
// the file is written once the pass is over.
type tracer struct {
	t0       time.Time
	spans    []span
	requests map[int]*request // by span.Request
	counts   map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), requests: map[int]*request{}, counts: map[string][]float64{}}
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// beginRequest opens the root span of one replayed request.
func (t *tracer) beginRequest(id int, req *request) int {
	t.requests[id] = req
	return t.begin("request", -1, id)
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

func (t *tracer) observe(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

// durations returns the durations in ms of the spans with this name whose
// request passes the filter (nil: every span of that name).
func (t *tracer) durations(name string, of func(*request) bool) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		if of != nil {
			if req := t.requests[s.Request]; req == nil || !of(req) {
				continue
			}
		}
		out = append(out, s.ms())
	}
	return out
}

func ofClass(classes ...string) func(*request) bool {
	return func(r *request) bool { return contains(classes, r.class) }
}

func ofShape(shape string) func(*request) bool {
	return func(r *request) bool { return r.shape == shape }
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// selfTimes returns, per span name, the total time in ms spent in spans of
// that name outside their child spans: the layer's own work.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	self := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return self
}

// spanCostNS calibrates what recording one span costs, so the trace can
// state its own overhead.
func spanCostNS() float64 {
	const n = 200000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1, i))
	}
	return float64(time.Since(start)) / n
}

// lib is the harness's own open store: what the daemon holds per epoch,
// assembled from the same public functions serve.New calls.
type lib struct {
	dir     string
	nproc   int
	cat     *store.Catalog
	views   []*core.View
	st      *view.Store
	sum     *summary.Summary
	est     *cost.Estimator
	subsume *core.SubsumeCache
	plans   map[string]*core.Plan // canonical text → chosen plan: the plan cache's role
}

// buildLib runs the set-up pipeline layer by layer into dir and opens the
// result. The returned document is a second copy of the generated one, for
// the replay's update generator.
func buildLib(t *tracer, dir string, docSeed int64, scale, nproc int) (*lib, *xmltree.Document, error) {
	s := t.begin("datagen.xmark", -1, 0)
	doc := datagen.XMark(scale, docSeed)
	t.end(s)
	// BuildStore builds the summary itself; timing a separate build of the
	// same document shows that share of it.
	s = t.begin("summary.build", -1, 0)
	summary.Build(doc)
	t.end(s)
	s = t.begin("view.build_store", -1, 0)
	_, err := view.BuildStore(dir, doc, benchViews())
	t.end(s)
	if err != nil {
		return nil, nil, err
	}
	l := &lib{dir: dir, nproc: nproc, subsume: core.NewSubsumeCache(0), plans: map[string]*core.Plan{}}
	if l.cat, err = store.OpenCatalog(dir); err != nil {
		return nil, nil, err
	}
	if l.sum, err = summary.Parse(l.cat.Summary); err != nil {
		return nil, nil, err
	}
	if l.views, err = view.ViewsFromCatalog(l.cat); err != nil {
		return nil, nil, err
	}
	s = t.begin("view.open", -1, 0)
	l.st, err = view.OpenStoreWithCatalog(dir, l.cat, l.views)
	t.end(s)
	if err != nil {
		return nil, nil, err
	}
	l.est = cost.NewEstimator(cost.FromCatalog(l.cat, l.sum))
	largest := l.cat.Views[0]
	for _, e := range l.cat.Views {
		if e.Bytes > largest.Bytes {
			largest = e
		}
	}
	s = t.begin("store.decode", -1, 0)
	_, _, err = store.ReadFileZones(filepath.Join(dir, largest.Segment))
	t.end(s)
	if err != nil {
		return nil, nil, err
	}
	return l, doc, nil
}

// loadDocument makes the store updatable, as the daemon does on its first
// /update.
func (l *lib) loadDocument() error {
	doc, err := store.ReadDocumentFile(filepath.Join(l.dir, l.cat.DocSegment))
	if err != nil {
		return err
	}
	l.st.SetDocument(doc)
	return nil
}

// replayQuery walks one /query through the layers in the daemon's order.
func (l *lib) replayQuery(t *tracer, id int, req *request) error {
	root := t.beginRequest(id, req)
	defer t.end(root)
	sub := func(name string, parent int) int { return t.begin(name, parent, id) }

	s := sub("pattern.parse", root)
	q, err := pattern.Parse(req.query)
	t.end(s)
	if err != nil {
		return err
	}
	key := q.String()
	plan, hit := l.plans[key]
	if !hit {
		opts := core.DefaultRewriteOptions()
		opts.Workers = l.nproc
		opts.Subsume = l.subsume
		opts.MaxResults = maxRewritings
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s = sub("core.rewrite", root)
		res, err := core.Rewrite(q, l.views, l.sum, opts)
		t.end(s)
		if err != nil {
			return fmt.Errorf("rewrite %s: %w", key, err)
		}
		runtime.ReadMemStats(&m1)
		t.observe("core.rewrite_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		t.observe("core.plans_explored", float64(res.PlansExplored))
		s = sub("cost.pick", root)
		plan, _, _ = core.ChooseBest(res, l.est.PlanCost)
		t.end(s)
		if plan == nil {
			return fmt.Errorf("no rewriting of %s", key)
		}
		l.plans[key] = plan
	}
	s = sub("view.snapshot", root)
	snap := l.st.Snapshot()
	t.end(s)
	s = sub("algebra.execute", root)
	out, err := algebra.ExecuteWith(plan, snap, algebra.Options{Workers: l.nproc, Stats: &algebra.ExecStats{}})
	t.end(s)
	if err != nil {
		snap.Release()
		return fmt.Errorf("execute %s: %w", key, err)
	}

	enc := sub("serve.encode", root)
	s = sub("encode.sort", enc)
	rel := out.Rel
	if req.limit != 0 {
		rel = rel.Sorted()
	}
	t.end(s)
	s = sub("encode.render", enc)
	limit, offset, total := req.limit, req.offset, rel.Len()
	if limit < 0 {
		limit = total
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	rows := make([][]string, 0, end-offset)
	for _, row := range rel.Rows[offset:end] {
		rendered := make([]string, len(row))
		for i, v := range row {
			rendered[i] = v.Render()
		}
		rows = append(rows, rendered)
	}
	t.end(s)
	s = sub("encode.json", enc)
	_, err = json.Marshal(&serve.QueryResponse{Query: key, Plan: plan.String(), PlanCached: hit,
		Epoch: snap.Epoch(), Columns: rel.Cols, Rows: rows, TotalRows: total, Offset: offset})
	t.end(s)
	t.end(enc)

	s = sub("view.release", root)
	snap.Release()
	t.end(s)
	return err
}

// replayUpdate walks one /update through the layers in the committer's
// order.
func (l *lib) replayUpdate(t *tracer, id int, req *request) error {
	root := t.beginRequest(id, req)
	defer t.end(root)
	sub := func(name string, parent int) int { return t.begin(name, parent, id) }

	s := sub("maintain.parse", root)
	ups, err := maintain.ParseUpdates(req.body)
	t.end(s)
	if err != nil {
		return err
	}
	s = sub("maintain.dryrun", root)
	dry := maintain.NewDryRun(l.st.Document())
	err = dry.Apply(ups)
	dry.Undo()
	t.end(s)
	if err != nil {
		return err
	}

	commit := sub("view.commit", root)
	defer t.end(commit)
	phase := sub("view.apply", commit)
	//xvlint:lockheld(updMu) the replay is single-threaded: nothing else touches this directory
	res, err := view.ApplyAndPersistStaged(context.Background(), l.dir, l.cat, l.st, ups,
		func(res *view.UpdateResult) {
			t.end(phase)
			// The epoch swap the daemon's committer does here: its cost is
			// view.commit's self time.
			l.sum = res.Summary
			l.subsume = core.NewSubsumeCache(0)
			l.plans = map[string]*core.Plan{}
			l.est = cost.NewEstimator(cost.FromCatalog(l.cat, res.Summary))
			phase = sub("view.persist", commit)
		})
	t.end(phase)
	if err != nil {
		return fmt.Errorf("replaying update: %w", err)
	}
	l.est = cost.NewEstimator(cost.FromCatalog(l.cat, res.Summary))
	return nil
}

// compactIfDue folds the delta chains once one reaches the daemon's
// threshold, as its background compactor would.
func (l *lib) compactIfDue(t *tracer) error {
	for i := range l.cat.Views {
		if len(l.cat.Views[i].Deltas) >= compactChain {
			s := t.begin("view.compact", -1, 0)
			//xvlint:lockheld(updMu) the replay is single-threaded: nothing else touches this directory
			_, err := view.CompactCatalog(l.dir, l.cat)
			t.end(s)
			return err
		}
	}
	return nil
}

// compactChain is the daemon's default -compactchain: the replay folds
// 16-segment chains because that is what the measured daemon folds.
const compactChain = 16

// writeTrace persists the pass's spans, the class and shape of each replayed
// request, and each layer's self time.
func writeTrace(path, workload string, seed int64, t *tracer) error {
	type requestInfo struct {
		Class string `json:"class"`
		Shape string `json:"shape"`
	}
	requests := make(map[int]requestInfo, len(t.requests))
	for id, r := range t.requests {
		requests[id] = requestInfo{r.class, r.shape}
	}
	data, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Seed     int64               `json:"seed"`
		SelfMS   map[string]float64  `json:"self_ms_total_by_layer"`
		Requests map[int]requestInfo `json:"requests"`
		Spans    []span              `json:"spans"`
	}{workload, seed, t.selfTimes(), requests, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
