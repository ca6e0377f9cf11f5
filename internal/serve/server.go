// Package serve implements the xvserve query daemon: an HTTP server that
// answers tree-pattern (and XQuery-translated) queries from a persistent
// view store built by `xv build`, without ever touching the source document.
//
// A server loads the store directory's catalog, parses the recorded
// summary (with its cardinality statistics) and view definitions,
// memory-loads the extents, and then for each query runs the view-based
// rewriting (core.Rewrite), enumerating up to MaxResults equivalent plans
// and executing the cheapest under the statistics-backed cost model
// (internal/cost). Verdicts are memoized by a bounded LRU plan cache keyed
// by the query's canonical pattern text — concurrent misses on one key
// share a single search (singleflight) — and one summary-implication cache
// is shared across all queries. ?explain=1 returns the chosen plan, its
// estimated cost and the number of alternatives without executing.
//
// The daemon also accepts typed document updates on POST /update. A batch
// is maintained through the incremental engine (internal/maintain),
// persisted as one update-log record, and bumps the store epoch.
// Rewriting depends on the summary's shape (paths and strong/one-to-one
// edges), not on extent contents, so the plan and summary-implication
// caches survive a commit that leaves the shape alone (only the cost pick
// is redone under the new statistics) and are dropped by one that changes
// it: a plan (or a cached negative verdict) computed against another shape
// can never answer a later query.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/maintain"
	"xmlviews/internal/obs"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xquery"
)

// Config tunes a Server.
type Config struct {
	// Dir is the store directory (catalog.json + segments) to serve.
	Dir string
	// PlanCacheSize bounds the LRU plan cache (<= 0: default 256).
	PlanCacheSize int
	// ReadOnly disables POST /update.
	ReadOnly bool
	// MaxUpdateBytes bounds an update request body (<= 0: default 8 MiB).
	MaxUpdateBytes int64
	// MaxResponseRows is the hard cap on /query response rows (<= 0:
	// default 10000): it is the limit when the request passes none, and
	// explicit limits are clamped to it. TotalRows always reports the
	// full result size, so clients can page past the cap with offset.
	MaxResponseRows int
	// MaxRewritings bounds how many equivalent rewritings the search
	// enumerates before the cost model picks the cheapest (<= 0: default
	// 2). Higher values find more alternatives on cold queries at the
	// price of longer, memory-hungrier searches; 1 reproduces the
	// first-found behavior.
	MaxRewritings int
	// GroupWait is how long the committer holds a commit group open for
	// straggler requests after the first one arrives. 0 commits with
	// natural batching only: whatever queued while the previous group
	// persisted joins the next group. A small window (hundreds of
	// microseconds) trades a little latency for larger groups — fewer
	// fsyncs — under bursty writers.
	GroupWait time.Duration
	// GroupMax caps how many requests merge into one commit group
	// (<= 0: default 64).
	GroupMax int
	// MaxVersions bounds the store's MVCC retention window: at most this
	// many extent versions (live + retained for pinned readers) are
	// tracked; beyond it the oldest is force-released (still-pinned
	// snapshots keep reading safely). <= 0: view.DefaultMaxVersions.
	MaxVersions int
	// SlowQuery, when > 0, logs every /query or /update slower than this
	// threshold as one structured log line carrying the request id, the
	// trace's annotations and its span timings.
	SlowQuery time.Duration
	// Logger receives the structured log lines; nil discards them.
	Logger *slog.Logger
	// TraceRingSize bounds the /debug/traces ring of recent request traces
	// (<= 0: obs.DefaultRingSize).
	TraceRingSize int
}

// defaultMaxRewritings bounds the per-query alternative enumeration. Two
// is what every recorded run uses: on XMark-sized summaries the search for
// eight alternatives of a cold //-query grows past 16 GB (bench/README.md).
const defaultMaxRewritings = 2

// Server answers queries over one store directory. It is safe for
// concurrent use. It holds only what request handlers may touch: the send
// side of the commit queue and the epoch state the committer publishes.
// The directory, the catalog, the live store and the document belong to
// the committer goroutine (commit.go), which New starts and does not
// retain — no handler can name them.
type Server struct {
	cfg     Config
	views   []*core.View
	started time.Time

	// mu guards cur, the epoch state the committer last published. The
	// committer swaps it wholesale the moment a new store version is
	// readable; handlers copy it and re-pin its snapshot under the read
	// lock, so a query's state is always internally consistent and readers
	// never wait out an apply or fsync.
	mu  sync.RWMutex
	cur epochState

	// commitQ carries parsed /update requests to the committer. stop is
	// closed by Close; done is closed when the committer has exited (at
	// once on a read-only server, which starts none). degraded is set when
	// a batch was applied in memory but could not be persisted; further
	// updates are refused so the directory's update log never skips an
	// epoch.
	commitQ   chan<- *commitReq
	stop      chan struct{}
	done      chan struct{}
	degraded  atomic.Bool
	closeOnce sync.Once

	// Observability: one registry holds every instrument (counters,
	// gauges, per-phase latency histograms) and backs GET /metrics; the
	// ring keeps the most recent request traces for GET /debug/traces.
	reg  *obs.Registry
	met  *metricsSet
	ring *obs.Ring
	log  *slog.Logger

	// maxExplored overrides the search's MaxExplored budget when positive;
	// tests set it to make a search give up.
	maxExplored int
}

// New opens the store directory and builds a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	cat, err := store.OpenCatalog(cfg.Dir)
	if err != nil {
		return nil, err
	}
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		return nil, fmt.Errorf("serve: catalog summary does not parse: %w", err)
	}
	views, err := view.ViewsFromCatalog(cat)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st, err := view.OpenStoreWithCatalog(cfg.Dir, cat, views)
	if err != nil {
		return nil, err
	}
	st.SetMaxVersions(cfg.MaxVersions)
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	viewNames := make([]string, len(views))
	for i, v := range views {
		viewNames[i] = v.Name
	}
	q := make(chan *commitReq, commitQueueDepth)
	s := &Server{
		cfg:     cfg,
		views:   views,
		started: time.Now(),
		commitQ: q,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		reg:     reg,
		met:     newMetricsSet(reg, viewNames),
		ring:    obs.NewRing(cfg.TraceRingSize),
		log:     logger,
	}
	s.registerGauges()
	reg.GaugeFunc("xvserve_store_versions", "MVCC extent versions the store tracks (live + retained for pinned readers).",
		func() float64 { return float64(st.Versions()) })
	obs.RegisterRuntimeMetrics(reg)
	c := &committer{srv: s, cat: cat, st: st, q: q}
	c.publish(sum)
	c.refreshLog()
	if cfg.ReadOnly {
		close(s.done)
	} else {
		go c.run()
	}
	return s, nil
}

// registerGauges adds the gauges that sample the published server state
// at scrape time: epoch, degraded flag, cache sizes, view count and uptime.
func (s *Server) registerGauges() {
	s.reg.GaugeFunc("xvserve_epoch", "Current store epoch.",
		func() float64 { return float64(s.epoch()) })
	s.reg.GaugeFunc("xvserve_degraded", "1 when an update batch was applied in memory but not persisted (updates disabled).",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("xvserve_plan_cache_entries", "Plans and negative verdicts held by the epoch's plan cache.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.cur.plans.len())
		})
	s.reg.GaugeFunc("xvserve_subsume_cache_entries", "Verdicts held by the epoch's summary-implication cache.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.cur.subsume.Len())
		})
	s.reg.GaugeFunc("xvserve_commit_queue_depth", "Update requests waiting in the commit queue.",
		func() float64 { return float64(len(s.commitQ)) })
	s.reg.GaugeFunc("xvserve_views", "Materialized views served.",
		func() float64 { return float64(len(s.views)) })
	s.reg.GaugeFunc("xvserve_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
}

// Close stops the committer, waiting out the group or checkpoint it is in
// the middle of. The HTTP handler remains usable for reads; /update
// requests still queued when the committer stops are answered 503.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Views returns the number of views served.
func (s *Server) Views() int { return len(s.views) }

// routes is the public route table: Handler mounts each entry, and the
// request counter's path label declares exactly these paths.
var routes = []struct {
	path   string
	handle func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/query", (*Server).handleQuery},
	{"/update", (*Server).handleUpdate},
	{"/healthz", (*Server).handleHealthz},
	{"/metrics", (*Server).handleMetrics},
	{"/debug/traces", (*Server).handleTraces},
}

// Handler returns the server's HTTP routes. Every route runs inside the
// instrument middleware: the response carries an X-Request-Id header (the
// client's, when valid, else generated), the request runs with a trace on
// its context, and the per-route request counter is observed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		handle := rt.handle
		mux.HandleFunc(rt.path, s.instrument(rt.path, func(w http.ResponseWriter, r *http.Request) { handle(s, w, r) }))
	}
	return mux
}

// epochState is one epoch as the committer publishes it: the summary, the
// caches keyed to its shape, the cost estimator, and the store's extents
// pinned at it. sum may be an earlier summary of the same shape, carried
// with the caches because the subsume cache is bound to it: its statistics
// can be stale, and only est carries the epoch's. The copy snapshot
// returns carries its own pin on st, which callers must Release so the
// store can drop superseded MVCC versions.
type epochState struct {
	sum     *summary.Summary
	subsume *core.SubsumeCache
	plans   *planCache
	est     *cost.Estimator
	st      *view.Snapshot
	epoch   int64
}

func (s *Server) snapshot() epochState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	es := s.cur
	es.st = es.st.Snapshot()
	return es
}

func (s *Server) epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.epoch
}

// QueryResponse is the JSON answer to /query.
type QueryResponse struct {
	// Query is the canonical pattern text the request resolved to.
	Query string `json:"query"`
	// Plan is the executed rewriting plan, chosen as the cheapest of the
	// equivalent rewritings under the statistics-backed cost model.
	Plan string `json:"plan"`
	// Cost is the chosen plan's estimated cost (-1 when no estimate was
	// possible); Alternatives is how many equivalent rewritings the search
	// produced.
	Cost         float64 `json:"cost"`
	Alternatives int     `json:"alternatives"`
	// PlanCached reports a plan-cache hit (the rewriting search was
	// skipped).
	PlanCached bool `json:"plan_cached"`
	// Epoch is the store epoch the answer reflects.
	Epoch int64 `json:"epoch"`
	// Columns and Rows are the result: one rendered string per value, rows
	// in nrel.Relation.RenderSorted order (by their values joined with
	// " | ", compared byte-wise).
	// Rows is the window selected by the limit/offset parameters (capped
	// at the server's maximum response size); TotalRows is the full result
	// cardinality and Offset the window's first row index. An explicit
	// limit=0 is a count-only probe: Rows stays empty while TotalRows
	// reports the full cardinality.
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	TotalRows int        `json:"total_rows"`
	Offset    int        `json:"offset"`
	// ExecPath reports which execution path this run took: "vectorized"
	// when any batch kernel ran, "row" otherwise.
	ExecPath string `json:"exec_path"`
	// RewriteMicros and ExecMicros are this request's latencies; the
	// rewrite time is ~0 on plan-cache hits.
	RewriteMicros int64 `json:"rewrite_us"`
	ExecMicros    int64 `json:"exec_us"`
	// Trace carries the request's span timings when the request asked for
	// them with trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the in-response rendering of a request's trace: the
// correlation id and the pipeline span timings recorded so far.
type TraceInfo struct {
	RequestID string     `json:"request_id"`
	Spans     []obs.Span `json:"spans"`
}

// traceInfo snapshots the context's trace for a response body; nil when
// the request is untraced.
func traceInfo(ctx context.Context) *TraceInfo {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return nil
	}
	return &TraceInfo{RequestID: tr.ID, Spans: tr.Spans()}
}

// ExplainResponse is the JSON answer to /query?...&explain=1: the chosen
// plan and its cost, without executing it.
type ExplainResponse struct {
	Query string `json:"query"`
	// Plan is the plan the query would execute.
	Plan string `json:"plan"`
	// Cost is its estimated cost under the current statistics (-1 when no
	// estimate was possible).
	Cost float64 `json:"cost"`
	// Alternatives is the number of equivalent rewritings the search
	// produced (the cost model picked the cheapest).
	Alternatives  int   `json:"alternatives"`
	PlanCached    bool  `json:"plan_cached"`
	Epoch         int64 `json:"epoch"`
	RewriteMicros int64 `json:"rewrite_us"`
	// LastExecPath is the execution path the cached plan's most recent run
	// took ("vectorized" or "row"); empty when the plan has not executed
	// since entering the cache.
	LastExecPath string `json:"last_exec_path,omitempty"`
	// Trace is always present on explain answers: explain exists to show
	// how the answer would be produced, and the span timings are part of
	// that story.
	Trace *TraceInfo `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID correlates the error with the X-Request-Id header, the
	// trace ring and the slow-request log.
	RequestID string `json:"request_id,omitempty"`
}

// statusClientClosedRequest is the nginx-convention status for a client
// that disconnected before the response was ready.
const statusClientClosedRequest = 499

// defaultMaxResponseRows caps /query row rendering when the caller sets no
// explicit limit.
const defaultMaxResponseRows = 10000

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if err := r.ParseForm(); err != nil {
		s.fail(w, r, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	ctx := r.Context()
	tr := obs.FromContext(ctx)
	snapStart := time.Now()
	es := s.snapshot()
	defer es.st.Release()
	snapDur := time.Since(snapStart)
	s.met.snapshotSeconds.ObserveDuration(snapDur)
	tr.AddSpan("snapshot", snapStart, snapDur)
	qSrc, xqSrc := r.Form.Get("q"), r.Form.Get("xq")
	var q *pattern.Pattern
	var err error
	switch {
	case qSrc != "" && xqSrc != "":
		s.fail(w, r, http.StatusBadRequest, "pass either q (tree pattern) or xq (XQuery), not both")
		return
	case qSrc != "":
		q, err = pattern.Parse(qSrc)
	case xqSrc != "":
		q, err = xquery.Translate(xqSrc, es.sum.Node(summary.RootID).Label)
	default:
		s.fail(w, r, http.StatusBadRequest, "missing query: pass q (tree pattern) or xq (XQuery)")
		return
	}
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "query does not parse: %v", err)
		return
	}
	maxRows := s.cfg.MaxResponseRows
	if maxRows <= 0 {
		maxRows = defaultMaxResponseRows
	}
	limit, err := intParam(r, "limit", maxRows)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if limit > maxRows {
		limit = maxRows
	}
	offset, err := intParam(r, "offset", 0)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	s.met.queries.Inc()
	key := q.String()
	tr.Annotate("query", key)
	tr.Annotate("epoch", strconv.FormatInt(es.epoch, 10))
	rewriteStart := time.Now()
	verdict, hit := es.plans.get(key, es.epoch)
	cacheHit := hit
	var leader bool
	if hit {
		s.met.planHits.Inc()
	} else {
		for {
			// Per-attempt timer: a retry after a cancelled leader's dead
			// flight must not bill that wait to the new attempt.
			rewriteStart = time.Now()
			verdict, leader, err = es.plans.compute(ctx, key, es.epoch, func() (cachedPlan, error) {
				return s.rewriteBest(ctx, q, es)
			})
			if err == nil {
				break
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if ctx.Err() != nil {
					// This request's own client went away mid-rewrite.
					s.clientGone(w, r, "client closed request during rewrite")
					return
				}
				if !leader {
					// The leader whose flight this request was sharing was
					// cancelled; retry (and possibly lead) with our own,
					// still-live context.
					continue
				}
			}
			s.fail(w, r, http.StatusInternalServerError, "rewrite: %v", err)
			return
		}
		if leader {
			s.met.planMisses.Inc()
		} else {
			// A singleflight follower (or the verdict landed in the cache
			// while this request queued): the search was skipped, which is
			// what the hit/miss stats and plan_cached field measure.
			s.met.planHits.Inc()
			hit = true
		}
	}
	if verdict.plan != nil && verdict.est != es.est {
		// The cache outlived a commit that kept the summary's shape: the
		// search's rewritings still hold, but the pick was made under older
		// statistics. Redo only the pick, once per plan per estimator.
		repicked := s.pick(ctx, verdict.res, es.est)
		if repicked.plan == verdict.plan {
			repicked.execPath = verdict.execPath
		}
		verdict = repicked
		es.plans.repick(key, verdict)
	}
	rewriteDur := time.Since(rewriteStart)
	tr.AddSpan("rewrite", rewriteStart, rewriteDur)
	// Singleflight followers spent this time waiting on the leader's
	// search, not searching; counting them would multiply one search's
	// cost by the stampede size in the latency totals.
	if cacheHit || leader {
		s.met.rewriteSeconds.ObserveDuration(rewriteDur)
	}
	if verdict.unsatisfiable {
		s.fail(w, r, http.StatusUnprocessableEntity, "%v", core.ErrUnsatisfiable)
		return
	}
	plan := verdict.plan
	if plan == nil && verdict.exhausted {
		s.fail(w, r, http.StatusUnprocessableEntity, "search budget exceeded for %s", key)
		return
	}
	if plan == nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "no equivalent rewriting of %s over the stored views", key)
		return
	}
	tr.Annotate("plan", plan.String())
	tr.Annotate("cost", strconv.FormatFloat(verdict.cost, 'g', -1, 64))
	tr.Annotate("plan_cached", strconv.FormatBool(hit))

	if r.Form.Get("explain") == "1" {
		writeJSON(w, http.StatusOK, &ExplainResponse{
			Query:         key,
			Plan:          plan.String(),
			Cost:          verdict.cost,
			Alternatives:  verdict.alternatives,
			PlanCached:    hit,
			Epoch:         es.epoch,
			RewriteMicros: rewriteDur.Microseconds(),
			LastExecPath:  verdict.execPath,
			Trace:         traceInfo(ctx),
		})
		return
	}

	execStart := time.Now()
	var xs algebra.ExecStats
	out, err := algebra.ExecuteWith(plan, es.st, algebra.Options{Ctx: ctx, Stats: &xs})
	execDur := time.Since(execStart)
	tr.AddSpan("execute", execStart, execDur)
	if err != nil {
		if ctx.Err() != nil {
			s.clientGone(w, r, "client closed request during execution")
			return
		}
		s.fail(w, r, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	// Count only completed executions: the partial duration of an
	// abandoned or failed run would skew the average operators alert on.
	s.met.execSeconds.ObserveDuration(execDur)
	plan.EachScan(func(v *core.View) {
		if v.Nav != nil {
			v = v.Nav.Base
		}
		s.met.viewReads.With(v.Name).Inc()
	})
	s.met.observeExecStats(&xs)
	execPath := "row"
	if xs.Vectorized() {
		execPath = "vectorized"
	}
	tr.Annotate("exec_path", execPath)
	if xs.BlocksScanned+xs.BlocksSkipped > 0 {
		tr.Annotate("vec_blocks", fmt.Sprintf("%d scanned, %d skipped", xs.BlocksScanned, xs.BlocksSkipped))
	}
	es.plans.recordExecPath(key, execPath)
	encodeStart := time.Now()
	rel := out.Rel
	total := rel.Len()
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total || end < offset { // overflow-safe
		end = total
	}
	// An explicit limit=0 is a count-only probe: the window stays empty,
	// TotalRows still reports the full cardinality, and the result is
	// never sorted or rendered.
	rows := make([][]string, 0, end-offset)
	if limit > 0 {
		for _, rr := range rel.RenderSorted()[offset:end] {
			rows = append(rows, rr.Parts)
		}
	}
	s.met.rowsServed.Add(int64(len(rows)))
	encodeDur := time.Since(encodeStart)
	s.met.encodeSeconds.ObserveDuration(encodeDur)
	tr.AddSpan("encode", encodeStart, encodeDur)
	resp := &QueryResponse{
		Query:         key,
		Plan:          plan.String(),
		Cost:          verdict.cost,
		Alternatives:  verdict.alternatives,
		PlanCached:    hit,
		Epoch:         es.epoch,
		Columns:       rel.Cols,
		Rows:          rows,
		TotalRows:     total,
		Offset:        offset,
		ExecPath:      execPath,
		RewriteMicros: rewriteDur.Microseconds(),
		ExecMicros:    execDur.Microseconds(),
	}
	if r.Form.Get("trace") == "1" {
		resp.Trace = traceInfo(ctx)
	}
	writeJSON(w, http.StatusOK, resp)
}

// intParam parses a non-negative integer query parameter, with a default
// when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.Form.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, raw)
	}
	return v, nil
}

// UpdateResponse is the JSON answer to /update.
type UpdateResponse struct {
	// Epoch is the store epoch after the batch.
	Epoch int64 `json:"epoch"`
	// Applied is the number of updates in the batch.
	Applied int `json:"applied"`
	// Changed lists per-view delta sizes; Skipped counts views the
	// relevance mapping proved unaffected.
	Changed []view.ChangedView `json:"changed"`
	Skipped int                `json:"skipped"`
	// MaintainMicros is the end-to-end maintenance latency (apply +
	// persist) of the commit group the request rode in.
	MaintainMicros int64 `json:"maintain_us"`
	// GroupSize is the number of requests the committing group merged into
	// this epoch (1 for a solo commit).
	GroupSize int `json:"group_size"`
}

const defaultMaxUpdateBytes = 8 << 20

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cfg.ReadOnly {
		s.fail(w, r, http.StatusForbidden, "server is read-only")
		return
	}
	limit := s.cfg.MaxUpdateBytes
	if limit <= 0 {
		limit = defaultMaxUpdateBytes
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > limit {
		s.fail(w, r, http.StatusRequestEntityTooLarge, "update batch exceeds %d bytes", limit)
		return
	}
	updates, err := maintain.ParseUpdates(body)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if len(updates) == 0 {
		s.fail(w, r, http.StatusBadRequest, "empty update batch")
		return
	}

	if s.degraded.Load() {
		s.fail(w, r, http.StatusServiceUnavailable, "updates disabled: an earlier batch was applied in memory but not persisted; restart the server against the store directory")
		return
	}

	// Hand the parsed request to the committer (commit.go): it merges
	// queued requests into one group-committed epoch and acks each with
	// its own verdict. The handler only enqueues and waits — it never
	// touches the document, the catalog or the persist path.
	ctx := r.Context()
	tr := obs.FromContext(ctx)
	tr.Annotate("updates", strconv.Itoa(len(updates)))
	req := &commitReq{updates: updates, tr: tr, enq: time.Now(), done: make(chan commitAck, 1)}
	select {
	case s.commitQ <- req:
	case <-s.stop:
		s.fail(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return
	case <-ctx.Done():
		// Not queued yet, so nothing commits on this request's behalf.
		s.clientGone(w, r, "client closed request before the update was queued")
		return
	default:
		// The queue is full: refuse at once rather than park the handler,
		// so overload reaches the client as a status it can retry on.
		w.Header().Set("Retry-After", "1")
		s.fail(w, r, http.StatusServiceUnavailable, "commit queue full (%d requests waiting); retry later", commitQueueDepth)
		return
	}
	select {
	case ack := <-req.done:
		if ack.resp != nil {
			tr.Annotate("epoch", strconv.FormatInt(ack.resp.Epoch, 10))
			writeJSON(w, http.StatusOK, ack.resp)
			return
		}
		s.fail(w, r, ack.status, "%s", ack.errMsg)
	case <-ctx.Done():
		// The client left while its request was queued or committing. The
		// committer is NOT cancelled — the group the request joined
		// commits for everyone else (the ack lands in the buffered done
		// channel unread); only this response reports the disconnect.
		s.clientGone(w, r, "client closed request while the update was committing")
	case <-s.stop:
		// Shutdown raced the commit; the group may or may not have
		// committed, the client must retry against the reopened store.
		s.fail(w, r, http.StatusServiceUnavailable, "server is shutting down")
	}
}

// rewriteBest runs the full search (up to MaxResults equivalent
// rewritings) and picks the cheapest plan under the epoch's cost
// estimator. An unsatisfiable query is a cacheable negative verdict, not
// an error, and so is a search that gave up at its budget with no
// rewriting, for the epoch that ran it; a cancelled search propagates the
// context error.
func (s *Server) rewriteBest(ctx context.Context, q *pattern.Pattern, es epochState) (cachedPlan, error) {
	s.met.rewritesRun.Inc()
	opts := core.DefaultRewriteOptions()
	opts.Subsume = es.subsume
	opts.Ctx = ctx
	opts.MaxResults = s.cfg.MaxRewritings
	if opts.MaxResults <= 0 {
		opts.MaxResults = defaultMaxRewritings
	}
	if s.maxExplored > 0 {
		opts.MaxExplored = s.maxExplored
	}
	res, err := core.Rewrite(q, s.views, es.sum, opts)
	if errors.Is(err, core.ErrUnsatisfiable) {
		return cachedPlan{unsatisfiable: true}, nil
	}
	if err != nil {
		return cachedPlan{}, err
	}
	if res.Exhausted {
		s.met.searchExhausted.Inc()
	}
	v := s.pick(ctx, res, es.est)
	if v.plan == nil && res.Exhausted {
		v.exhausted, v.epoch = true, es.epoch
	}
	return v, nil
}

// pick chooses the cheapest of a search's rewritings under est. The cost
// span goes on the trace of the request that did the work: a miss's
// singleflight leader, or a hit that re-picks under a newer estimator.
func (s *Server) pick(ctx context.Context, res *core.RewriteResult, est *cost.Estimator) cachedPlan {
	costStart := time.Now()
	plan, planCost, alts := core.ChooseBest(res, est.PlanCost)
	costDur := time.Since(costStart)
	s.met.costSeconds.ObserveDuration(costDur)
	obs.FromContext(ctx).AddSpan("cost", costStart, costDur)
	if math.IsInf(planCost, 1) {
		planCost = -1 // no estimate possible; also keeps the JSON encodable
	}
	return cachedPlan{plan: plan, cost: planCost, alternatives: alts, res: res, est: est}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"views":  len(s.views),
		"epoch":  s.epoch(),
	})
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	s.met.errors.Inc()
	writeJSON(w, code, &errorResponse{Error: fmt.Sprintf(format, args...), RequestID: requestID(r)})
}

// clientGone answers a request whose client disconnected: 499 by the
// nginx convention, counted apart from server errors so the errors stat
// stays an alertable signal.
func (s *Server) clientGone(w http.ResponseWriter, r *http.Request, msg string) {
	s.met.clientsGone.Inc()
	writeJSON(w, statusClientClosedRequest, &errorResponse{Error: msg, RequestID: requestID(r)})
}

// requestID returns the request's correlation id (empty only for requests
// that bypassed the instrument middleware, e.g. direct handler tests).
func requestID(r *http.Request) string {
	if tr := obs.FromContext(r.Context()); tr != nil {
		return tr.ID
	}
	return ""
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
