package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"time"

	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// ErrUnsatisfiable reports that the query cannot match any document
// conforming to the summary; callers (e.g. a serving layer) can treat it
// as a client error rather than a search failure.
var ErrUnsatisfiable = errors.New("core: query is unsatisfiable under the summary")

// RewriteOptions tunes Algorithm 1.
type RewriteOptions struct {
	Model ModelOptions
	// MaxScansPerPlan bounds the number of view scans per join plan. The
	// theoretical bound is (|q|-1)·|S| (Proposition 3.6); the default of 4
	// covers the practical cases while keeping search tractable.
	MaxScansPerPlan int
	// MaxPlans bounds the working set M.
	MaxPlans int
	// MaxUnion bounds the size of unions tried in the union phase
	// (Algorithm 1, lines 13-14).
	MaxUnion int
	// FirstOnly stops after the first equivalent rewriting.
	FirstOnly bool
	// MaxNavDepth bounds content-navigation view generation.
	MaxNavDepth int
	// DisableVirtualIDs turns off the navfID preprocessing.
	DisableVirtualIDs bool
	// MaxResults bounds the number of rewritings reported.
	MaxResults int
	// MaxExplored bounds the number of join merges attempted; the search
	// stops (reporting what it found) once exhausted.
	MaxExplored int
	// Deprecated: ignored. The search runs on the calling goroutine; the
	// field remains only for source compatibility.
	Workers int
	// Subsume optionally shares a summary-implication cache across calls
	// (useful when rewriting many queries over one summary). When nil, a
	// fresh bounded cache is created per call.
	Subsume *SubsumeCache
	// Ctx optionally cancels the search: it is checked between join-merge
	// batches (the budget loop) and in the union phase, so an abandoned
	// request (e.g. a disconnected HTTP client) stops burning CPU. A nil
	// context never cancels. Rewrite returns the context's error when the
	// search was cut short.
	Ctx context.Context
}

// DefaultRewriteOptions returns the defaults described above.
func DefaultRewriteOptions() RewriteOptions {
	return RewriteOptions{
		Model:           DefaultModelOptions(),
		MaxScansPerPlan: 4,
		MaxPlans:        4000,
		MaxUnion:        3,
		MaxNavDepth:     8,
		MaxResults:      64,
		MaxExplored:     200000,
	}
}

// RewriteResult reports the rewritings found and the timing/pruning
// statistics the paper's Figure 15 plots.
type RewriteResult struct {
	// Rewritings are the S-equivalent plans found, deduplicated up to
	// algebraic equivalence (identical canonical models), in discovery
	// order. Each plan's output schema matches the query's return nodes.
	Rewritings []*Plan
	// Setup is the preprocessing time: view preparation, pruning and the
	// query's canonical model.
	Setup time.Duration
	// First is the time from start until the first rewriting (zero when
	// none was found); Total is the overall time.
	First, Total time.Duration
	// ViewsTotal / ViewsKept count views before and after Proposition 3.4
	// pruning (derived navigation views included).
	ViewsTotal, ViewsKept int
	// PlansExplored counts the plan-model pairs examined.
	PlansExplored int
	// Exhausted reports that a budget ended the search before it found
	// MaxResults rewritings (or its first one, under FirstOnly): a join
	// merge was refused at MaxExplored, or a candidate was dropped from
	// the working set at MaxPlans. With no rewriting, it means the search
	// gave up, not that none exists.
	Exhausted bool
}

// entry is one plan–model pair of the working set.
type entry struct {
	plan  *Plan
	model []*Tree
	key   string
	// slotP caches, per slot, the summary nodes the slot can bind: the
	// cheap compatibility pre-check for join candidates.
	slotP []map[int]bool
	// reduced caches the Proposition 3.5 redundancy key.
	reduced string
}

func newEntry(plan *Plan, model []*Tree) entry {
	e := entry{plan: plan, model: model, key: modelKey(model)}
	e.reduced = reducedKey(model)
	n := len(plan.OutSlots())
	e.slotP = make([]map[int]bool, n)
	for j := 0; j < n; j++ {
		e.slotP[j] = slotPaths(model, j)
	}
	return e
}

// Rewrite runs Algorithm 1: it finds the plans over the given views that
// are S-equivalent to q, using ⋈=, ⋈≺, ⋈≺≺ (plain and nested), selections,
// projections, unnest/group-by nesting adjustments, and unions.
func Rewrite(q *pattern.Pattern, views []*View, s *summary.Summary, opts RewriteOptions) (*RewriteResult, error) {
	rw, m0, err := newRewriter(q, views, s, opts)
	if err != nil {
		return nil, err
	}
	return rw.run(m0)
}

// newRewriter prepares a search: the query's model, the pruned view set,
// and the initial plan–model pairs (M0) the search starts from.
func newRewriter(q *pattern.Pattern, views []*View, s *summary.Summary, opts RewriteOptions) (*rewriter, []entry, error) {
	if opts.MaxScansPerPlan <= 0 {
		// Legacy zero-value handling: fill in the unset search bounds,
		// keeping every field the caller did set (flags included).
		def := DefaultRewriteOptions()
		opts.MaxScansPerPlan = def.MaxScansPerPlan
		if opts.MaxPlans <= 0 {
			opts.MaxPlans = def.MaxPlans
		}
		if opts.MaxUnion <= 0 {
			opts.MaxUnion = def.MaxUnion
		}
		if opts.MaxNavDepth <= 0 {
			opts.MaxNavDepth = def.MaxNavDepth
		}
		if opts.MaxResults <= 0 {
			opts.MaxResults = def.MaxResults
		}
		if opts.MaxExplored <= 0 {
			opts.MaxExplored = def.MaxExplored
		}
		if opts.Model.MaxTrees <= 0 {
			opts.Model = def.Model
		}
	}
	start := time.Now()
	res := &RewriteResult{}

	qModel, err := ModelWith(q, s, opts.Model)
	if err != nil {
		return nil, nil, err
	}
	if len(qModel) == 0 {
		return nil, nil, ErrUnsatisfiable
	}
	qSets := pathSets(q, s)

	prepared := prepareViewSet(views, s, opts)
	res.ViewsTotal = len(prepared)
	kept := pruneViews(prepared, q, s)
	res.ViewsKept = len(kept)

	// Build the initial plan–model pairs (M0), most-relevant views first:
	// the left-deep search then reaches promising combinations before the
	// exploration budget runs out.
	var m0 []entry
	for _, v := range kept {
		model, err := ModelWith(v.Pattern, s, opts.Model)
		if err != nil {
			return nil, nil, err
		}
		if len(model) == 0 {
			continue // S-unsatisfiable view
		}
		m0 = append(m0, newEntry(Scan(v), model))
	}
	sortByRelevance(m0, q, qSets)
	res.Setup = time.Since(start)

	subsume := opts.Subsume
	if subsume == nil {
		subsume = NewSubsumeCache(0)
	}
	rw := &rewriter{
		q: q, qModel: qModel, qSets: qSets, s: s, opts: opts,
		seen: map[string]bool{}, adaptedSeen: map[string]bool{},
		resultKeys: map[string]bool{}, cover: map[string]bool{}, subsume: subsume,
		res: res, start: start,
	}
	return rw, m0, nil
}

// run searches from the seed pairs m0, then for unions.
func (rw *rewriter) run(m0 []entry) (*RewriteResult, error) {
	rw.search(m0)

	// Union phase (Algorithm 1, lines 13-14).
	rw.unionPhase()
	if rw.cancelled() {
		// The search was cut short; partial results are not the canonical
		// answer, so report the cancellation instead.
		return nil, rw.opts.Ctx.Err()
	}
	rw.res.Exhausted = rw.cut && !rw.done()
	rw.res.Total = time.Since(rw.start)
	return rw.res, nil
}

// search seeds the working set with the single-view plans m0 and runs the
// left-deep join development (Algorithm 1, lines 2-11): work[i] is joined
// against every seed plan, and surviving candidates join the working set.
// Iteration order makes the result canonical (discovery order,
// first-representative dedup), and the search stops the moment FirstOnly
// or MaxResults is satisfied, so no candidate is generated past that point.
func (rw *rewriter) search(m0 []entry) {
	work := append([]entry(nil), m0...)
	for _, e := range m0 {
		rw.seenAdd(e.key)
		rw.consider(e)
		if rw.done() {
			return
		}
	}
	for i := 0; i < len(work); i++ {
		if rw.cancelled() {
			return
		}
		li := work[i]
		if li.plan.NumScans() >= rw.opts.MaxScansPerPlan {
			continue
		}
		for _, lj := range m0 {
			cands, attempts, cut := rw.genJoinCandidates(li, lj, rw.budgetLeft())
			rw.res.PlansExplored += attempts
			rw.cut = rw.cut || cut
			for _, e := range cands {
				if !rw.seenAdd(e.key) {
					continue
				}
				rw.consider(e)
				if rw.done() {
					return
				}
				if len(work) < rw.opts.MaxPlans {
					work = append(work, e)
				} else {
					rw.cut = true
				}
			}
		}
	}
}

func prepareViewSet(views []*View, s *summary.Summary, opts RewriteOptions) []*View {
	if opts.DisableVirtualIDs {
		stripped := make([]*View, len(views))
		for i, v := range views {
			nv := *v
			nv.DerivableParentIDs = false
			stripped[i] = &nv
		}
		views = stripped
	}
	return prepareViews(views, s, opts.MaxNavDepth)
}

// sortByRelevance orders entries by how many query return slots their
// slots can serve (paths overlap and attributes suffice), ties broken by
// smaller canonical models.
func sortByRelevance(m0 []entry, q *pattern.Pattern, qSets []map[int]bool) {
	score := func(e entry) int {
		total := 0
		for _, rn := range q.Returns() {
			for j, ps := range e.plan.OutSlots() {
				if rn.Attrs&^ps.Attrs == 0 && overlaps(e.slotP[j], qSets[rn.Index]) {
					total++
					break
				}
			}
		}
		return total
	}
	scores := make(map[*Plan]int, len(m0))
	for _, e := range m0 {
		scores[e.plan] = score(e)
	}
	sort.SliceStable(m0, func(i, j int) bool {
		si, sj := scores[m0[i].plan], scores[m0[j].plan]
		if si != sj {
			return si > sj
		}
		return len(m0[i].model) < len(m0[j].model)
	})
}

type rewriter struct {
	q      *pattern.Pattern
	qModel []*Tree
	// qSets holds, per query node index, the summary nodes it can bind.
	qSets []map[int]bool
	s     *summary.Summary
	opts  RewriteOptions

	// seen is the canonical-model dedup set.
	seen        map[string]bool
	adaptedSeen map[string]bool
	resultKeys  map[string]bool
	// cover memoizes plan-tree cover verdicts by canonical tree key; it is
	// this search's own. subsume memoizes summary-implication decisions and
	// may be shared with concurrent searches over the same summary.
	cover   map[string]bool
	subsume *SubsumeCache
	res     *RewriteResult
	start   time.Time

	// partials are adapted plans contained in q but not equivalent,
	// kept for the union phase.
	partials []entry
	// cut records that a budget (MaxExplored, MaxPlans) left part of the
	// search space unexplored.
	cut bool
}

func (rw *rewriter) done() bool {
	if rw.cancelled() {
		return true
	}
	if len(rw.res.Rewritings) == 0 {
		return false
	}
	return rw.opts.FirstOnly || len(rw.res.Rewritings) >= rw.opts.MaxResults
}

// cancelled reports whether the caller's context was cancelled; the search
// loops poll it between join-merge batches.
func (rw *rewriter) cancelled() bool {
	if rw.opts.Ctx == nil {
		return false
	}
	select {
	case <-rw.opts.Ctx.Done():
		return true
	default:
		return false
	}
}

// seenAdd inserts a canonical-model key into the dedup set, reporting
// whether it was absent.
func (rw *rewriter) seenAdd(key string) bool {
	if rw.seen[key] {
		return false
	}
	rw.seen[key] = true
	return true
}

// budgetLeft returns the remaining join-merge budget, or -1 for unlimited.
func (rw *rewriter) budgetLeft() int {
	if rw.opts.MaxExplored <= 0 {
		return -1
	}
	left := rw.opts.MaxExplored - rw.res.PlansExplored
	if left < 0 {
		left = 0
	}
	return left
}

// genJoinCandidates develops all joins of li (left) with lj (right), using
// the cached slot path sets as a cheap compatibility pre-check. Every
// nested/outer variant costs one attempt whether or not it yields a
// candidate; generation stops once limit attempts were made (limit < 0 =
// unlimited), and cut reports that an attempt was refused. Candidates that
// merely re-derive one child (Proposition 3.5) are dropped here.
func (rw *rewriter) genJoinCandidates(li, lj entry, limit int) (out []entry, attempts int, cut bool) {
	ls, rs := li.plan.OutSlots(), lj.plan.OutSlots()
	for lslot, lps := range ls {
		if !lps.Attrs.Has(pattern.AttrID) {
			continue
		}
		for rslot, rps := range rs {
			if !rps.Attrs.Has(pattern.AttrID) {
				continue
			}
			for _, kind := range []JoinKind{JoinID, JoinParent, JoinAncestor} {
				if !rw.joinFeasible(li.slotP[lslot], lj.slotP[rslot], kind) {
					continue
				}
				for _, variant := range joinVariants(kind, lj.plan) {
					if limit >= 0 && attempts >= limit {
						return out, attempts, true
					}
					attempts++
					plan := NewJoin(kind, variant.nested, li.plan, lslot, lj.plan, rslot)
					plan.Outer = variant.outer
					model, err := joinModels(li.model, lj.model, plan, rw.s, rw.opts.Model)
					if err != nil || len(model) == 0 {
						continue
					}
					e := newEntry(plan, model)
					// Proposition 3.5: a join that adds nothing to either
					// child opens no new rewriting possibilities.
					if e.reduced == li.reduced || e.reduced == lj.reduced {
						continue
					}
					out = append(out, e)
				}
			}
		}
	}
	return out, attempts, false
}

// joinFeasible checks whether any summary-node pair of the two slots can
// satisfy the join predicate.
func (rw *rewriter) joinFeasible(lp, rp map[int]bool, kind JoinKind) bool {
	switch kind {
	case JoinID:
		return overlaps(lp, rp)
	case JoinParent:
		for y := range rp {
			if lp[rw.s.Node(y).Parent] {
				return true
			}
		}
	case JoinAncestor:
		for x := range lp {
			for y := range rp {
				if rw.s.IsAncestor(x, y) {
					return true
				}
			}
		}
	}
	return false
}

// joinVariants lists the nested/outer combinations worth trying: nesting
// never applies to same-node joins, and outer joins only help when the
// right side is a scan (the only shape with an exact ⊥ probe).
func joinVariants(kind JoinKind, right *Plan) []struct{ nested, outer bool } {
	variants := []struct{ nested, outer bool }{{false, false}}
	if kind != JoinID {
		variants = append(variants, struct{ nested, outer bool }{true, false})
		if right.Op == OpScan {
			variants = append(variants,
				struct{ nested, outer bool }{false, true},
				struct{ nested, outer bool }{true, true})
		}
	}
	return variants
}

// consider runs the slot selection of Proposition 3.7 and the Section 4.6
// adaptations for one plan–model pair and tests each new adaptation
// against the query: equivalent ones are emitted, contained ones kept as
// union-phase partials. An adaptation already judged (same canonical key)
// is skipped before any containment test.
func (rw *rewriter) consider(e entry) {
	adapted := rw.adaptToQuery(e)
	for _, a := range adapted {
		if rw.cancelled() {
			return
		}
		if rw.adaptedSeen[a.key] {
			continue
		}
		rw.adaptedSeen[a.key] = true
		inQ := planContainedInQueryCached(a.model, rw.q, rw.cover, rw.subsume)
		if !inQ {
			continue
		}
		if queryContainedInPlan(rw.qModel, a.model, rw.subsume) {
			rw.emit(a)
			if rw.done() {
				return
			}
		} else {
			rw.partials = append(rw.partials, a)
		}
	}
}

func (rw *rewriter) emit(a entry) {
	if rw.resultKeys[a.key] {
		return
	}
	rw.resultKeys[a.key] = true
	if len(rw.res.Rewritings) == 0 {
		rw.res.First = time.Since(rw.start)
	}
	rw.res.Rewritings = append(rw.res.Rewritings, a.plan)
}

// unionPhase finds minimal unions of partial plans equivalent to q.
func (rw *rewriter) unionPhase() {
	if rw.done() || len(rw.partials) == 0 {
		return
	}
	n := len(rw.partials)
	if n > 24 {
		n = 24 // keep the subset enumeration bounded
	}
	maxK := rw.opts.MaxUnion
	var successful [][]int
	var idx []int
	var try func(startAt, k int)
	try = func(startAt, k int) {
		if rw.done() {
			return
		}
		if len(idx) >= 2 {
			if !rw.supersetOf(successful, idx) {
				var parts []*Plan
				var model []*Tree
				byKey := map[string]*Tree{}
				for _, i := range idx {
					parts = append(parts, rw.partials[i].plan)
					for _, t := range rw.partials[i].model {
						byKey[t.Key()] = t
					}
				}
				model = sortedTrees(byKey)
				if queryContainedInPlan(rw.qModel, model, rw.subsume) {
					u := &Plan{Op: OpUnion, Parts: parts}
					successful = append(successful, append([]int(nil), idx...))
					rw.emit(entry{plan: u, model: model, key: modelKey(model)})
				}
			}
		}
		if len(idx) == k {
			return
		}
		for i := startAt; i < n; i++ {
			idx = append(idx, i)
			try(i+1, k)
			idx = idx[:len(idx)-1]
		}
	}
	for k := 2; k <= maxK && !rw.done(); k++ {
		idx = idx[:0]
		try(0, k)
	}
}

// supersetOf reports whether idx is a superset of an already successful
// subset (those unions would be non-minimal).
func (rw *rewriter) supersetOf(successful [][]int, idx []int) bool {
	in := map[int]bool{}
	for _, i := range idx {
		in[i] = true
	}
	for _, s := range successful {
		all := true
		for _, i := range s {
			if !in[i] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// reducedKey is the Proposition 3.5 comparison key: the canonical model
// with duplicate slots (same node, attrs, nesting) collapsed, so a join
// that merely re-derives one child is recognized as redundant. A tree with
// no duplicate slot is its own reduction, cached key included.
func reducedKey(model []*Tree) string {
	byKey := make(map[string]*Tree, len(model))
	for _, t := range model {
		if slots := distinctSlots(t.Slots); len(slots) < len(t.Slots) {
			t = t.withSlots(slots)
		}
		byKey[t.Key()] = t
	}
	return modelKey(sortedTrees(byKey))
}

// distinctSlots returns slots without the ones equal to an earlier slot;
// slots itself when they are all distinct.
func distinctSlots(slots []Slot) []Slot {
	var out []Slot
	for i, sl := range slots {
		dup := slices.ContainsFunc(slots[:i], func(o Slot) bool {
			return o.Node == sl.Node && o.Attrs == sl.Attrs && slices.Equal(o.Nest, sl.Nest)
		})
		switch {
		case dup && out == nil:
			out = slices.Clone(slots[:i])
		case !dup && out != nil:
			out = append(out, sl)
		}
	}
	if out == nil {
		return slots
	}
	return out
}
