// Package maintain implements incremental maintenance of materialized
// tree-pattern views under typed document updates (xmltree.Update).
//
// The engine maps every update of a batch against every view's tree
// pattern before touching any extent. For each update it collects the set
// of affected rooted label paths — the paths of inserted, deleted or
// renamed nodes, the path of a retexted node, and the ancestor paths whose
// content (C) attribute sees the change — and checks, per view, whether
// any pattern node's root chain can match one of them (the same label/axis
// embedding discipline core's matching uses, minus value predicates, which
// keeps the test a sound over-approximation). Views that cannot match any
// affected path are proven unaffected and skipped outright; this
// irrelevance filter is what makes a multi-view store cheap to maintain,
// since a typical update touches few views.
//
// For the remaining views the engine computes tuple deltas *scoped to the
// change*: for chain-shaped views storing a required identifier (see
// scope.go) it evaluates the pattern only under the affected Dewey subtree
// root — before and after each update — and splices the difference into
// the key-sorted extent by binary search, so maintenance cost follows the
// size of the change, not of the document. Views outside that class fall
// back to full re-evaluation and a whole-extent diff, which keeps the
// engine exactly faithful to the paper's optional-edge and set semantics
// in every case (the scoped path is provably exact for its class; the
// differential oracle cross-checks both). Batches are atomic: if any
// update fails to apply, the document is rolled back, the maintained
// summary clone is discarded, and no extent changes.
package maintain

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/obs"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// Materializer produces a view's flat extent over a document. The view
// package passes view.MaterializeFlat; taking it as a parameter keeps this
// package importable from view without a cycle.
type Materializer func(*core.View, *xmltree.Document) *nrel.Relation

// ScopedMaterializer produces the witnessed part of a view's flat extent
// under a scope root: the rows whose witness identifier (the id column of
// the flattened pattern's witnessReturn-th return node) lies at or below
// root, evaluated without leaving root's chain and subtree. The view
// package passes view.MaterializeFlatScoped.
type ScopedMaterializer func(v *core.View, doc *xmltree.Document, root nodeid.ID, witnessReturn int) *nrel.Relation

// Engine bundles the evaluation hooks and maintained state ComputeDeltas
// threads through a batch.
type Engine struct {
	// Mat re-evaluates a full extent (the fallback path). Required.
	Mat Materializer
	// MatScoped evaluates the witnessed scoped extent. nil disables the
	// scoped fast path (every relevant view is fully recomputed).
	MatScoped ScopedMaterializer
	// Summary is the incrementally maintained summary of the document. It
	// is cloned per batch; the advanced clone is returned in
	// Batch.Maintained on success and discarded on failure. nil builds a
	// fresh one from the document (O(document), so callers should cache).
	Summary *summary.Maintained
	// SortedExtents asserts that current() returns extents sorted by row
	// key (maintain.SortByKey order). The scoped fast path splices by
	// binary search and silently corrupts unsorted extents, so it is only
	// taken when this is set; view.Store establishes the invariant before
	// its first batch.
	SortedExtents bool
	// Ctx, when it carries an obs.Trace, makes the engine record aggregate
	// "diff" and "splice" spans for the batch (the scoped evaluations +
	// extent diffing, and the sorted splices + net-delta folds). nil or an
	// untraced context costs nothing.
	Ctx context.Context
}

// trace returns the engine context's trace (nil when absent: every
// obs.Trace method is a no-op on nil).
func (e Engine) trace() *obs.Trace {
	if e.Ctx == nil {
		return nil
	}
	return obs.FromContext(e.Ctx)
}

// Delta is the tuple-level change to one view's flat extent.
type Delta struct {
	View *core.View
	// Adds and Dels share the extent's column schema. A row moves from the
	// extent when it appears in Dels and into it when it appears in Adds.
	Adds, Dels *nrel.Relation
	// New is the full maintained extent after the batch.
	New *nrel.Relation
}

// Batch is the result of maintaining a store through one update batch.
type Batch struct {
	// Deltas holds one entry per view whose extent changed.
	Deltas []*Delta
	// Skipped lists views the relevance mapping proved unaffected (their
	// extents were not even re-evaluated).
	Skipped []string
	// Scoped counts the relevant views maintained through the scoped fast
	// path (vs. full recomputation).
	Scoped int
	// Summary is the path summary of the updated document, maintained
	// incrementally through the batch and snapshotted with canonical node
	// ids (the serving side rewrites against it).
	Summary *summary.Summary
	// Maintained is the advanced mutable summary; callers that cache one
	// across batches (view.Store) commit it on success.
	Maintained *summary.Maintained
}

// viewState tracks one view through a batch.
type viewState struct {
	relevant bool
	// full marks the fallback path: recompute the whole extent after the
	// batch. Set when the view is not scoped-diffable.
	full bool
	// analyzed/fast cache the scoped-diff eligibility analysis.
	analyzed bool
	fast     *fastView
	// working is the view's key-sorted extent being spliced through the
	// batch (a copy of the current extent, taken on first touch).
	working *nrel.Relation
	// net accumulates the batch's membership changes.
	net *netDelta
}

// ComputeDeltas applies the update batch to doc (in place, atomically) and
// returns the per-view extent deltas. current returns a view's extent
// before the batch (key-sorted when eng.SortedExtents); eng supplies the
// evaluation hooks and the maintained summary.
func ComputeDeltas(doc *xmltree.Document, views []*core.View, updates []xmltree.Update,
	current func(*core.View) *nrel.Relation, eng Engine) (*Batch, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("maintain: empty update batch")
	}
	msum := eng.Summary
	if msum == nil {
		msum = summary.NewMaintained(doc)
	}
	work := msum.Clone()
	fastOK := eng.MatScoped != nil && eng.SortedExtents

	// Aggregate phase timings for the batch's trace; timed only when the
	// engine context actually carries one.
	tr := eng.trace()
	var diffDur, spliceDur time.Duration
	var t0 time.Time

	states := make([]*viewState, len(views))
	for i := range states {
		states[i] = &viewState{}
	}

	fail := func(undo []func(), i int, err error) (*Batch, error) {
		rollback(undo)
		return nil, fmt.Errorf("maintain: update %d: %w", i, err)
	}

	var undo []func()
	for i := range updates {
		u := updates[i]
		// The affected rooted label paths of this update, including the
		// post-apply shapes of inserts and renames (computable pre-apply
		// from the update itself).
		ps := newPathSet()
		if err := ps.collect(doc, u); err != nil {
			return fail(undo, i, err)
		}
		// Scoped pre-apply evaluations for the relevant fast views.
		type pending struct {
			j     int
			scope updateScope
			old   *nrel.Relation
		}
		var pend []pending
		for j, v := range views {
			st := states[j]
			if !ps.relevant(v.Pattern) {
				continue
			}
			st.relevant = true
			if st.full {
				continue
			}
			if !st.analyzed {
				st.analyzed = true
				if fastOK {
					st.fast, _ = analyzeFast(v)
				}
				if st.fast == nil {
					st.full = true
					continue
				}
			}
			sc, ok := scopeFor(u, doc, st.fast)
			if !ok {
				// The update will fail to apply; let the apply report it.
				continue
			}
			p := pending{j: j, scope: sc}
			if sc.pre != nil {
				if tr != nil {
					t0 = time.Now()
				}
				p.old = eng.MatScoped(v, doc, sc.pre, st.fast.witnessReturn)
				if tr != nil {
					diffDur += time.Since(t0)
				}
			}
			pend = append(pend, p)
		}

		// Apply the update, maintaining the summary clone around it
		// (remove-before-detach, add-after-attach).
		if u.Kind == xmltree.UpdateDelete {
			if n := doc.FindByID(u.Target); n != nil && n.Parent != nil {
				if err := work.RemoveSubtree(n); err != nil {
					return fail(undo, i, err)
				}
			}
		}
		var renamed *xmltree.Node
		if u.Kind == xmltree.UpdateRename {
			// An invalid rename (empty label) is rejected by applyWithUndo
			// below; the summary work done here is discarded on failure.
			if n := doc.FindByID(u.Target); n != nil && n.Parent != nil {
				renamed = n
				if err := work.RemoveSubtree(n); err != nil {
					return fail(undo, i, err)
				}
			}
		}
		var textDelta int64
		if u.Kind == xmltree.UpdateSetValue {
			if n := doc.FindByID(u.Target); n != nil {
				textDelta = int64(len(u.Value)) - int64(len(n.Value))
			}
		}
		node, un, err := applyWithUndo(doc, u)
		if err != nil {
			return fail(undo, i, err)
		}
		undo = append(undo, un)
		switch u.Kind {
		case xmltree.UpdateInsert:
			err = work.AddSubtree(node)
		case xmltree.UpdateRename:
			if renamed != nil {
				err = work.AddSubtree(renamed)
			} else {
				work.RenameRoot(u.Label)
			}
		case xmltree.UpdateSetValue:
			err = work.AdjustText(node, textDelta)
		}
		if err != nil {
			return fail(undo, i, err)
		}

		// Scoped post-apply evaluations and splices.
		for _, p := range pend {
			v, st := views[p.j], states[p.j]
			root := p.scope.pre
			if p.scope.postFromInserted {
				root = node.ID
			}
			if tr != nil {
				t0 = time.Now()
			}
			newRel := eng.MatScoped(v, doc, root, st.fast.witnessReturn)
			adds, dels := diffKeyed(p.old, newRel)
			if tr != nil {
				diffDur += time.Since(t0)
			}
			if adds.Len() == 0 && dels.Len() == 0 {
				continue
			}
			if st.working == nil {
				cur := current(v)
				st.working = nrel.NewRelation(cur.Cols...)
				st.working.Rows = append([]nrel.Tuple(nil), cur.Rows...)
				st.net = newNetDelta()
			}
			if tr != nil {
				t0 = time.Now()
			}
			added, deleted := spliceSorted(st.working, adds, dels)
			// Net-delta folding must run to completion once the splice
			// mutated st.working, or working and net disagree; both loops
			// are bounded by one update's scoped delta.
			//xvlint:nopoll splice already applied; aborting desyncs working from net
			for _, row := range deleted {
				st.net.delRow(row)
			}
			//xvlint:nopoll splice already applied; aborting desyncs working from net
			for _, row := range added {
				st.net.addRow(row)
			}
			if tr != nil {
				spliceDur += time.Since(t0)
			}
		}
	}

	work.RecomputeEdgeFlags()
	batch := &Batch{Summary: work.Snapshot(), Maintained: work}
	for j, v := range views {
		st := states[j]
		if !st.relevant {
			batch.Skipped = append(batch.Skipped, v.Name)
			continue
		}
		if st.full {
			if tr != nil {
				t0 = time.Now()
			}
			newRel := SortByKey(eng.Mat(v, doc))
			adds, dels := diffRelations(current(v), newRel)
			if tr != nil {
				diffDur += time.Since(t0)
			}
			if adds.Len() == 0 && dels.Len() == 0 {
				continue
			}
			batch.Deltas = append(batch.Deltas, &Delta{View: v, Adds: adds, Dels: dels, New: newRel})
			continue
		}
		batch.Scoped++
		if st.working == nil || st.net.empty() {
			continue
		}
		adds, dels := st.net.relations(st.working.Cols)
		batch.Deltas = append(batch.Deltas, &Delta{View: v, Adds: adds, Dels: dels, New: st.working})
	}
	if tr != nil {
		end := time.Now()
		if diffDur > 0 {
			tr.AddSpan("diff", end.Add(-diffDur), diffDur)
		}
		if spliceDur > 0 {
			tr.AddSpan("splice", end.Add(-spliceDur), spliceDur)
		}
	}
	return batch, nil
}

func rollback(undo []func()) {
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}
}

// applyWithUndo applies one update, returning the node it touched and a
// closure restoring the document to its prior state (splicing nodes back
// by identity, so no ID is reallocated on rollback).
func applyWithUndo(doc *xmltree.Document, u xmltree.Update) (*xmltree.Node, func(), error) {
	switch u.Kind {
	case xmltree.UpdateInsert:
		n, err := doc.InsertSubtree(u.Parent, u.Before, u.Subtree)
		if err != nil {
			return nil, nil, err
		}
		return n, func() {
			p := n.Parent
			for i, c := range p.Children {
				if c == n {
					p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
					return
				}
			}
		}, nil
	case xmltree.UpdateDelete:
		n := doc.FindByID(u.Target)
		if n == nil || n.Parent == nil {
			// Delegate error wording to the real operation.
			_, err := doc.DeleteSubtree(u.Target)
			return nil, nil, err
		}
		parent := n.Parent
		pos := -1
		for i, c := range parent.Children {
			if c == n {
				pos = i
				break
			}
		}
		if _, err := doc.DeleteSubtree(u.Target); err != nil {
			return nil, nil, err
		}
		return n, func() {
			parent.Children = append(parent.Children, nil)
			copy(parent.Children[pos+1:], parent.Children[pos:])
			parent.Children[pos] = n
			n.Parent = parent
		}, nil
	case xmltree.UpdateRename:
		n := doc.FindByID(u.Target)
		if n == nil {
			_, err := doc.RenameNode(u.Target, u.Label)
			return nil, nil, err
		}
		old := n.Label
		if _, err := doc.RenameNode(u.Target, u.Label); err != nil {
			return nil, nil, err
		}
		return n, func() { n.Label = old }, nil
	case xmltree.UpdateSetValue:
		n := doc.FindByID(u.Target)
		if n == nil {
			_, err := doc.SetNodeValue(u.Target, u.Value)
			return nil, nil, err
		}
		old := n.Value
		if _, err := doc.SetNodeValue(u.Target, u.Value); err != nil {
			return nil, nil, err
		}
		return n, func() { n.Value = old }, nil
	}
	return nil, nil, fmt.Errorf("unknown update kind %d", u.Kind)
}

// diffRelations returns the rows of new missing from old (adds) and the
// rows of old missing from new (dels), under set semantics.
//
//xvlint:nopoll runs inside one batch's apply; a partial diff would persist a hole
func diffRelations(old, new *nrel.Relation) (adds, dels *nrel.Relation) {
	adds, dels = nrel.NewRelation(new.Cols...), nrel.NewRelation(new.Cols...)
	oldKeys := make(map[string]bool, old.Len())
	for _, row := range old.Rows {
		oldKeys[rowKey(row)] = true
	}
	newKeys := make(map[string]bool, new.Len())
	for _, row := range new.Rows {
		k := rowKey(row)
		newKeys[k] = true
		if !oldKeys[k] {
			adds.Rows = append(adds.Rows, row)
		}
	}
	for _, row := range old.Rows {
		if !newKeys[rowKey(row)] {
			dels.Rows = append(dels.Rows, row)
		}
	}
	return adds, dels
}

// rowKey's \x00 order intentionally differs from the " | " /query order
// (nrel.Relation.RenderSorted): it is a storage invariant, not the API's.
func rowKey(row nrel.Tuple) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Render())
		b.WriteByte(0)
	}
	return b.String()
}

// pathSet accumulates the rooted label paths a batch affects.
type pathSet struct {
	// nodes are the paths of created/removed/renamed/retexted nodes: a
	// pattern node binding (or newly failing to bind) one of them is what
	// changes an extent row.
	nodes map[string][]string
	// ancestors are the paths of nodes whose content subtree changed; they
	// matter only to pattern nodes storing the C attribute.
	ancestors map[string][]string
}

func newPathSet() *pathSet {
	return &pathSet{nodes: map[string][]string{}, ancestors: map[string][]string{}}
}

func pathKey(p []string) string { return strings.Join(p, "\x1f") }

func (ps *pathSet) addNode(p []string) {
	ps.nodes[pathKey(p)] = append([]string(nil), p...)
}

func (ps *pathSet) addAncestors(p []string) {
	for i := 1; i <= len(p); i++ {
		ps.ancestors[pathKey(p[:i])] = append([]string(nil), p[:i]...)
	}
}

// labelPath returns the rooted label path of a live document node.
func labelPath(n *xmltree.Node) []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Label)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// addSubtreeShapes records the paths of every node of a subtree whose root
// sits at the given base path (base already includes the root's label —
// or, with an override, the label it is about to receive).
func (ps *pathSet) addSubtreeShapes(base []string, root *xmltree.Node) {
	ps.addNode(base)
	var walk func(prefix []string, n *xmltree.Node)
	walk = func(prefix []string, n *xmltree.Node) {
		for _, c := range n.Children {
			p := append(append([]string(nil), prefix...), c.Label)
			ps.addNode(p)
			walk(p, c)
		}
	}
	walk(base, root)
}

// addSubtreePaths records the paths of every node of a live subtree.
func (ps *pathSet) addSubtreePaths(root *xmltree.Node) {
	ps.addSubtreeShapes(labelPath(root), root)
}

// collect records the paths update u affects, evaluated against the
// pre-update document. The post-apply shapes of inserts and renames are
// derivable from the update itself, so the whole affected-path set is
// known before anything mutates.
func (ps *pathSet) collect(doc *xmltree.Document, u xmltree.Update) error {
	switch u.Kind {
	case xmltree.UpdateInsert:
		parent := doc.FindByID(u.Parent)
		if parent == nil {
			return fmt.Errorf("insert parent %s not found", u.Parent)
		}
		if u.Subtree == nil || u.Subtree.Root == nil {
			return fmt.Errorf("insert with empty subtree")
		}
		base := labelPath(parent)
		ps.addAncestors(base)
		ps.addSubtreeShapes(append(base, u.Subtree.Root.Label), u.Subtree.Root)
	case xmltree.UpdateDelete:
		n := doc.FindByID(u.Target)
		if n == nil {
			return fmt.Errorf("delete target %s not found", u.Target)
		}
		ps.addSubtreePaths(n)
		if n.Parent != nil {
			ps.addAncestors(labelPath(n.Parent))
		}
	case xmltree.UpdateRename:
		n := doc.FindByID(u.Target)
		if n == nil {
			return fmt.Errorf("rename target %s not found", u.Target)
		}
		ps.addSubtreePaths(n) // old shape
		path := labelPath(n)
		ps.addSubtreeShapes(append(path[:len(path)-1:len(path)-1], u.Label), n) // new shape
		if n.Parent != nil {
			ps.addAncestors(labelPath(n.Parent))
		}
	case xmltree.UpdateSetValue:
		n := doc.FindByID(u.Target)
		if n == nil {
			return fmt.Errorf("settext target %s not found", u.Target)
		}
		ps.addNode(labelPath(n))
		ps.addAncestors(labelPath(n))
	default:
		return fmt.Errorf("unknown update kind %d", u.Kind)
	}
	return nil
}

// relevant reports whether the batch can affect the extent of a view with
// the given pattern: some pattern node's root chain matches an affected
// node path, or a C-storing pattern node's chain matches a path whose
// content changed. Renames and the post-apply insert hook also feed the
// node-path set, so both the old and new shape of a changed region are
// tested.
func (ps *pathSet) relevant(p *pattern.Pattern) bool {
	for _, pn := range p.Nodes() {
		chain := chainOf(pn)
		for _, path := range ps.nodes {
			if chainMatchesPath(chain, path) {
				return true
			}
		}
		if pn.Attrs.Has(pattern.AttrContent) {
			for _, path := range ps.ancestors {
				if chainMatchesPath(chain, path) {
					return true
				}
			}
		}
	}
	return false
}

// chainStep is one edge of a pattern node's root chain.
type chainStep struct {
	label      string
	descendant bool
}

func chainOf(n *pattern.Node) []chainStep {
	var rev []chainStep
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, chainStep{label: cur.Label, descendant: cur.Parent != nil && cur.Axis == pattern.Descendant})
	}
	out := make([]chainStep, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func stepMatches(s chainStep, label string) bool {
	return s.label == pattern.Wildcard || s.label == label
}

// chainMatchesPath reports whether the chain can embed into the rooted
// label path with its last step bound to the path's last label. Value
// predicates and optional markers are ignored: the test over-approximates,
// which is the sound direction for a relevance filter.
func chainMatchesPath(chain []chainStep, path []string) bool {
	if len(path) == 0 || !stepMatches(chain[0], path[0]) {
		return false
	}
	cur := map[int]bool{0: true}
	for _, s := range chain[1:] {
		next := map[int]bool{}
		for p := range cur {
			if s.descendant {
				for q := p + 1; q < len(path); q++ {
					if stepMatches(s, path[q]) {
						next[q] = true
					}
				}
			} else if q := p + 1; q < len(path) && stepMatches(s, path[q]) {
				next[q] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return cur[len(path)-1]
}
