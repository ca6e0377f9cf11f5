package serve

// Group commit: /update requests no longer apply and persist their batch
// under a handler-held lock. They enqueue into a commit queue and a
// single committer goroutine drains it, merging every queued request into
// one epoch — one summary clone, one diff/splice pass over the
// concatenated update list, one staged persist (delta files, one
// update-log record, the catalog) — then acks each waiting request
// individually. While one group fsyncs, the next group accumulates, so
// update throughput scales with concurrent writers instead of being
// 1/latency.
//
// Per-request semantics are preserved by validating each request with a
// dry-run apply (maintain.DryRun) in queue order before the group seals:
// a malformed request fails alone with 422 and is excluded from the
// merged batch; the rest of the group still commits. Once sealed, the
// group commits under a context detached from every member request, so a
// client disconnect never cancels a commit it joined — the departed
// request is answered 499 by its handler while the committer finishes
// the group for everyone else.
//
// The committer is also the only code that can reach the store directory,
// the catalog object, the live store and the document: they are fields of
// the committer value, which New hands to `go c.run()` and does not keep.
// Commit, online compaction and the document checkpoint therefore cannot
// interleave — not because they take a lock, but because one goroutine
// runs them in turn.

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/maintain"
	"xmlviews/internal/obs"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// defaultGroupMax caps how many requests merge into one commit group.
const defaultGroupMax = 64

// commitQueueDepth bounds how many parsed requests can wait for the
// committer; past it, /update answers 503 with Retry-After (backpressure).
const commitQueueDepth = 256

// commitReq is one parsed, size-checked /update request waiting for the
// committer. done is buffered so the committer can ack without ever
// blocking on a handler that stopped listening (client disconnect).
type commitReq struct {
	updates []xmltree.Update
	tr      *obs.Trace
	enq     time.Time
	done    chan commitAck
}

// commitAck is the committer's per-request verdict: resp on success, an
// HTTP status and message otherwise.
type commitAck struct {
	status int
	errMsg string
	resp   *UpdateResponse
}

func (r *commitReq) ack(a commitAck) { r.done <- a }

// committer is the daemon's single writer. It owns the catalog object, the
// live store (and through it the document and the maintained summary),
// and every mutation of the store directory; what handlers see of an
// epoch is what publish hands the Server.
type committer struct {
	srv *Server
	cat *store.Catalog
	st  *view.Store
	q   <-chan *commitReq
}

// run is the committer goroutine: one group at a time, each followed by a
// compaction when the policy trips and a document checkpoint when the
// update log is long enough. A store opened with already-long chains
// (e.g. a daemon that crashed before compacting) is folded before the
// first update commits; an already-long log is checkpointed after it (the
// document is only attached then).
func (c *committer) run() {
	defer close(c.srv.done)
	if c.refreshChains() {
		c.compact()
	}
	for {
		// Stop wins over a non-empty queue: once Close is called no new
		// group starts, and everything still queued is refused.
		select {
		case <-c.srv.stop:
			c.drainQueue()
			return
		default:
		}
		select {
		case <-c.srv.stop:
		case first := <-c.q:
			c.commitGroup(c.collectGroup(first))
		}
	}
}

// publish makes the store's current epoch the one handlers read: a fresh
// pin on the live version and an estimator over the catalog's statistics.
// Rewriting and containment are decided over the summary's shape — labels,
// tree, strong and one-to-one edges and canonical ids, exactly what its
// unannotated rendering shows — never over counts. So when sum has the
// current epoch's shape, the plan and containment caches carry over
// together with the summary the containment cache is bound to, and hits
// redo only the cost pick under the new estimator. Otherwise both caches
// start empty: verdicts computed under another shape must not survive.
func (c *committer) publish(sum *summary.Summary) {
	s := c.srv
	snap := c.st.Snapshot()
	next := epochState{
		est:   cost.NewEstimator(cost.FromCatalog(c.cat, sum)),
		st:    snap,
		epoch: snap.Epoch(),
	}
	prev := s.cur // only the committer writes cur, so it may read it unlocked
	if prev.sum != nil && prev.sum.String() == sum.String() {
		next.sum, next.subsume, next.plans = prev.sum, prev.subsume, prev.plans
	} else {
		next.sum = sum
		next.subsume = core.NewSubsumeCache(0)
		next.plans = newPlanCache(s.cfg.PlanCacheSize)
		if prev.sum != nil {
			s.met.invalidations.Inc()
		}
	}
	s.mu.Lock()
	s.cur = next
	s.mu.Unlock()
	if prev.st != nil {
		prev.st.Release()
	}
}

// refreshChains recomputes the delta-chain gauges from the catalog and
// reports whether a compaction is due: online compaction is enabled and
// the policy trips.
func (c *committer) refreshChains() bool {
	var longest, total int64
	for i := range c.cat.Views {
		e := &c.cat.Views[i]
		if n := int64(len(e.Deltas)); n > longest {
			longest = n
		}
		for _, d := range e.Deltas {
			total += d.Bytes
		}
	}
	s := c.srv
	s.met.maxChain.SetInt(longest)
	s.met.deltaBytes.SetInt(total)
	maxChain, maxBytes := int64(s.cfg.CompactMaxChain), s.cfg.CompactMaxBytes
	if maxChain <= 0 {
		maxChain = defaultCompactMaxChain
	}
	if maxBytes <= 0 {
		maxBytes = defaultCompactMaxBytes
	}
	return !s.cfg.CompactDisabled && (longest >= maxChain || total >= maxBytes)
}

// refreshLog republishes the durability gauges from the catalog and the
// update log's length.
func (c *committer) refreshLog() {
	m := c.srv.met
	m.durableEpoch.SetInt(c.cat.Epoch)
	m.docEpoch.SetInt(c.cat.DocEpoch)
	m.logRecords.SetInt(c.cat.Epoch - c.cat.DocEpoch)
	m.logBytes.SetInt(store.UpdateLogSize(c.srv.cfg.Dir))
}

// checkpoint folds the update log into a fresh document checkpoint;
// callers have seen view.CheckpointDue. Like compaction it changes no
// epoch and nothing readers see, and updates queue for its duration. A
// failure leaves catalog and directory as they were (the log just keeps
// growing), so it is counted and retried after the next group rather than
// degrading the server.
func (c *committer) checkpoint() {
	s := c.srv
	start := time.Now()
	err := view.CheckpointDocument(s.cfg.Dir, c.cat, c.st.Document())
	s.met.checkpointSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		s.met.checkpointErrors.Inc()
		s.log.Error("document checkpoint failed; retrying after the next update group", slog.String("error", err.Error()))
	} else {
		s.met.checkpoints.Inc()
	}
	c.refreshLog()
}

// compact folds the delta chains; callers have seen refreshChains report
// one due.
// Queries are untouched (they serve memory extents against their pinned
// epoch); updates queue for the duration of the fold. The epoch is
// preserved, so nothing is republished. A compaction failure leaves the
// store consistent (the catalog still references the old chains and the
// fold is idempotent), so it is counted, logged like a failed checkpoint
// and retried after the next group rather than degrading the server.
func (c *committer) compact() {
	s := c.srv
	start := time.Now()
	res, err := view.CompactCatalog(s.cfg.Dir, c.cat)
	s.met.compactSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		s.met.compactErrors.Inc()
		// refreshChains set the gauge from this catalog just before.
		s.log.Error("compaction failed; retrying after the next update group",
			slog.String("error", err.Error()), slog.Int64("longest_chain", int64(s.met.maxChain.Value())))
		return
	}
	s.met.compactions.Inc()
	s.met.compactFolded.Add(int64(res.Folded))
	s.met.compactReclaimed.Add(res.BytesReclaimed)
	c.refreshChains()
}

// collectGroup seals one commit group: the first request plus whatever
// queued behind it (natural batching — while the previous group fsynced,
// writers accumulated), topped up during an optional GroupWait straggler
// window, capped at GroupMax.
func (c *committer) collectGroup(first *commitReq) []*commitReq {
	group := []*commitReq{first}
	max := c.srv.cfg.GroupMax
	if max <= 0 {
		max = defaultGroupMax
	}
	for len(group) < max {
		select {
		case r := <-c.q:
			group = append(group, r)
			continue
		default:
		}
		break
	}
	if wait := c.srv.cfg.GroupWait; wait > 0 && len(group) < max {
		timer := time.NewTimer(wait)
		defer timer.Stop()
	straggle:
		for len(group) < max {
			select {
			case r := <-c.q:
				group = append(group, r)
			case <-timer.C:
				break straggle
			case <-c.srv.stop:
				break straggle
			}
		}
	}
	return group
}

// drainQueue answers every request still queued at shutdown; none of them
// joined a sealed group, so refusing them is exact.
func (c *committer) drainQueue() {
	for {
		select {
		case r := <-c.q:
			r.ack(commitAck{status: http.StatusServiceUnavailable, errMsg: "server is shutting down"})
		default:
			return
		}
	}
}

// commitGroup validates each member request, merges the accepted ones
// into one batch, applies and persists it as one epoch, publishes the new
// epoch, and acks every member with its own result.
func (c *committer) commitGroup(group []*commitReq) {
	s := c.srv
	now := time.Now()
	for _, r := range group {
		s.met.queueWait.ObserveDuration(now.Sub(r.enq))
	}
	if s.degraded.Load() {
		for _, r := range group {
			r.ack(commitAck{status: http.StatusServiceUnavailable,
				errMsg: "updates disabled: an earlier batch was applied in memory but not persisted; restart the server against the store directory"})
		}
		return
	}
	if c.st.Document() == nil {
		// A daemon that only answers queries never reads the document back;
		// the first update attaches it.
		if err := view.AttachDocument(s.cfg.Dir, c.cat, c.st); err != nil {
			for _, r := range group {
				r.ack(commitAck{status: http.StatusConflict, errMsg: "store is not updatable: " + err.Error()})
			}
			return
		}
	}

	// Per-request validation, in queue order, against the document as the
	// earlier accepted requests will have left it: an insert under a node
	// an earlier request deletes must fail exactly as the merged apply
	// would. Rejected requests fail alone; the group commits without them.
	dry := maintain.NewDryRun(c.st.Document())
	var live []*commitReq
	var merged []xmltree.Update
	for _, r := range group {
		if err := dry.Apply(r.updates); err != nil {
			r.ack(commitAck{status: http.StatusUnprocessableEntity, errMsg: err.Error()})
			continue
		}
		live = append(live, r)
		merged = append(merged, r.updates...)
	}
	dry.Undo()
	if len(live) == 0 {
		return
	}

	// The group is sealed: commit under a trace and context detached from
	// every member request, so a departing client cannot cancel work its
	// groupmates depend on. The group trace's spans are fanned out to each
	// member's trace below.
	gtr := obs.NewTrace(obs.NewRequestID())
	ctx := obs.WithTrace(context.Background(), gtr)

	start := time.Now()
	res, err := view.ApplyAndPersistStaged(ctx, s.cfg.Dir, c.cat, c.st, merged,
		func(res *view.UpdateResult) {
			// The merged batch is applied: the store installed the new
			// extent version. Publish it immediately, so queries never wait
			// out the disk persist. If the persist then fails, memory ahead
			// of disk is the degraded state handled below.
			c.publish(res.Summary)
		})
	// The pipeline recorded "apply", "persist" and "catalog" spans on the
	// group trace (plus the engine's diff/splice aggregates under apply);
	// feed the phase histograms from the same measurements.
	if d := gtr.SpanTotal("apply"); d > 0 {
		s.met.applySeconds.ObserveDuration(d)
	}
	if d := gtr.SpanTotal("persist") + gtr.SpanTotal("catalog"); d > 0 {
		s.met.persistSeconds.ObserveDuration(d)
	}
	var perr *view.PersistError
	if err != nil && !errors.As(err, &perr) {
		// Validation accepted the group but the maintenance engine did
		// not; memory and directory are unchanged (the visibility hook
		// only runs after a successful apply), so the whole group fails
		// without degrading the server.
		for _, r := range live {
			r.ack(commitAck{status: http.StatusUnprocessableEntity, errMsg: err.Error()})
		}
		return
	}
	s.met.updates.Add(int64(len(live)))
	s.met.groupCommits.Inc()
	s.met.groupSize.Observe(float64(len(live)))
	for _, ch := range res.Changed {
		s.met.tuplesAdded.Add(int64(ch.Adds))
		s.met.tuplesDeleted.Add(int64(ch.Dels))
	}
	dur := time.Since(start)
	s.met.maintainSeconds.ObserveDuration(dur)
	gtr.AddSpan("maintain", start, dur)
	gtr.Annotate("epoch", strconv.FormatInt(res.Epoch, 10))
	gtr.Annotate("group_size", strconv.Itoa(len(live)))

	if perr != nil {
		s.degraded.Store(true)
		s.log.Error("update group applied in memory but not persisted; updates disabled",
			slog.String("group_trace", gtr.ID), slog.Int("group_size", len(live)),
			slog.String("error", perr.Error()))
		for _, r := range live {
			fanOutSpans(r, gtr)
			r.ack(commitAck{status: http.StatusInternalServerError,
				errMsg: perr.Error() + "; queries keep serving the applied batch from memory, further updates are disabled"})
		}
		return
	}
	// The group is durable: its catalog rename completed.
	c.refreshLog()
	// The catalog now carries the new row counts, so refresh the cost
	// estimator published eagerly in the visibility hook (same summary,
	// fresher cardinalities).
	est := cost.NewEstimator(cost.FromCatalog(c.cat, res.Summary))
	s.mu.Lock()
	s.cur.est = est
	s.mu.Unlock()
	// The delta chains grew by one segment per changed view: refresh the
	// gauges before the acks, fold after them when the policy trips.
	over := c.refreshChains()
	changed := res.Changed
	if changed == nil {
		changed = []view.ChangedView{}
	}
	for _, r := range live {
		fanOutSpans(r, gtr)
		r.ack(commitAck{resp: &UpdateResponse{
			Epoch:          res.Epoch,
			Applied:        len(r.updates),
			Changed:        changed,
			Skipped:        res.Skipped,
			MaintainMicros: dur.Microseconds(),
			GroupSize:      len(live),
		}})
	}
	if over {
		c.compact()
	}
	if view.CheckpointDue(c.cat) {
		c.checkpoint()
	}
}

// fanOutSpans copies the group trace's committer-phase spans onto one
// member request's trace, preserving absolute timing, so per-request
// traces (ring, slow log, trace=1) still show apply/persist/catalog
// phases under group commit.
func fanOutSpans(r *commitReq, gtr *obs.Trace) {
	for _, sp := range gtr.Spans() {
		r.tr.AddSpan(sp.Name, gtr.Begin.Add(sp.Start), sp.Dur)
	}
	r.tr.Annotate("group_trace", gtr.ID)
}
