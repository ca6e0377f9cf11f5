package core

import (
	"strconv"
	"strings"

	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// prepareViews expands the view set for rewriting (Section 4.6):
//
//   - virtual IDs: when the ID scheme supports parent derivation and a
//     pattern node's paths are all at the same vertical distance from its
//     parent's paths, the parent gains a derived ID attribute (navfID);
//   - navigation views: for every slot storing both ID and C with a single
//     associated path, one derived view per descendant path exposes the
//     data reachable by navigating inside the stored content — the
//     executable form of the paper's C-attribute unfolding.
//
// The returned views are clones; the input views are never mutated.
func prepareViews(views []*View, s *summary.Summary, maxNavDepth int) []*View {
	var out []*View
	for _, v := range views {
		pv := &View{
			Name:               v.Name,
			Pattern:            v.Pattern.Clone(),
			DerivableParentIDs: v.DerivableParentIDs,
		}
		if v.DerivableParentIDs {
			addVirtualIDs(pv, s)
			if len(pv.VirtualSlots) > 0 {
				pv.Stored = v.Pattern.Clone()
				pv.StoredSlotMap = storedSlotMap(pv.Stored, pv.Pattern)
			}
		}
		out = append(out, pv)
		out = append(out, navViews(pv, s, maxNavDepth)...)
	}
	return out
}

// storedSlotMap aligns the stored pattern's return slots with the prepared
// pattern's. The two patterns are structurally identical (preparation only
// adds attributes), so nodes correspond by preorder index.
func storedSlotMap(stored, prepared *pattern.Pattern) []int {
	prepSlotAt := map[int]int{} // preorder index -> prepared slot
	for k, rn := range prepared.Returns() {
		prepSlotAt[rn.Index] = k
	}
	out := make([]int, stored.Arity())
	for i, rn := range stored.Returns() {
		out[i] = prepSlotAt[rn.Index]
	}
	return out
}

// addVirtualIDs walks the pattern bottom-up, adding derived ID attributes
// to parents of ID-bearing nodes at constant vertical distance.
func addVirtualIDs(v *View, s *summary.Summary) {
	p := v.Pattern
	paths := pattern.AssociatedPaths(p, s)
	type derivation struct {
		source *pattern.Node
		up     int
	}
	virtual := map[*pattern.Node]derivation{}
	// Iterate to a fixpoint ("this process can be repeated").
	for changed := true; changed; {
		changed = false
		for _, n := range p.Nodes() {
			if n.Parent == nil || !n.Attrs.Has(pattern.AttrID) {
				continue
			}
			parent := n.Parent
			if parent.Attrs.Has(pattern.AttrID) {
				continue
			}
			dist, ok := constantDistance(s, paths[parent.Index], paths[n.Index])
			if !ok {
				continue
			}
			parent.Attrs |= pattern.AttrID
			virtual[parent] = derivation{source: n, up: dist}
			changed = true
		}
	}
	if len(virtual) == 0 {
		return
	}
	p.Finish()
	v.VirtualSlots = map[int]VirtualID{}
	slotOf := map[*pattern.Node]int{}
	for k, rn := range p.Returns() {
		slotOf[rn] = k
	}
	// Walk the pattern's node list rather than the derivation map: every
	// virtual node carries AttrID, so it is a return node with a slot.
	for _, n := range p.Nodes() {
		if d, ok := virtual[n]; ok {
			v.VirtualSlots[slotOf[n]] = VirtualID{FromSlot: slotOf[d.source], Up: d.up}
		}
	}
}

// constantDistance reports the unique depth difference between every path
// of the child set and its ancestor in the parent set.
func constantDistance(s *summary.Summary, parentPaths, childPaths []int) (int, bool) {
	if len(parentPaths) == 0 || len(childPaths) == 0 {
		return 0, false
	}
	dist := -1
	for _, cp := range childPaths {
		found := false
		for _, pp := range parentPaths {
			if pp == cp || s.IsAncestor(pp, cp) {
				d := s.Node(cp).Depth - s.Node(pp).Depth
				if dist == -1 {
					dist = d
				} else if dist != d {
					return 0, false
				}
				found = true
			}
		}
		if !found {
			return 0, false
		}
	}
	if dist <= 0 {
		return 0, false
	}
	return dist, true
}

// navViews builds the derived navigation views of a prepared view.
func navViews(v *View, s *summary.Summary, maxDepth int) []*View {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	paths := pattern.AssociatedPaths(v.Pattern, s)
	var out []*View
	for slot, rn := range v.Pattern.Returns() {
		if !rn.Attrs.Has(pattern.AttrID | pattern.AttrContent) {
			continue
		}
		anchors := paths[rn.Index]
		if len(anchors) != 1 {
			// Multi-path anchors would need a union of navigation views;
			// we keep the C attribute unexpanded in that case.
			continue
		}
		anchor := anchors[0]
		s.WalkDescendants(anchor, func(target int) {
			if s.Node(target).Depth-s.Node(anchor).Depth <= maxDepth {
				out = append(out, buildNavView(v, slot, anchor, target, s))
			}
		})
	}
	return out
}

// buildNavView constructs the pattern root→anchor[id]→target[id,v] and
// wraps it as a derived view.
func buildNavView(base *View, baseSlot, anchor, target int, s *summary.Summary) *View {
	chainTop, _ := s.ChainBetween(summary.RootID, anchor)
	p := pattern.NewPattern(s.Node(summary.RootID).Label)
	cur := p.Root
	for _, sid := range chainTop[1:] {
		cur = p.AddChild(cur, s.Node(sid).Label, pattern.Child)
	}
	cur.Attrs = pattern.AttrID
	chainDown, _ := s.ChainBetween(anchor, target)
	relPath := make([]string, 0, len(chainDown)-1)
	for _, sid := range chainDown[1:] {
		cur = p.AddChild(cur, s.Node(sid).Label, pattern.Child)
		relPath = append(relPath, s.Node(sid).Label)
	}
	cur.Attrs = pattern.AttrID | pattern.AttrValue
	p.Finish()
	return &View{
		Name:               base.Name + "→" + strings.TrimPrefix(s.PathString(target), s.PathString(anchor)),
		Pattern:            p,
		DerivableParentIDs: base.DerivableParentIDs,
		Nav:                &NavSpec{Base: base, BaseSlot: baseSlot, RelPath: relPath},
	}
}

// pruneViews drops views irrelevant to the query (Proposition 3.4): a view
// is kept only if some non-root view node's associated paths intersect, or
// are in ancestor/descendant relation with, some non-root query node's
// paths.
func pruneViews(views []*View, q *pattern.Pattern, s *summary.Summary) []*View {
	qPaths := pattern.AssociatedPaths(q, s)
	qSet := map[int]bool{}
	for _, n := range q.Nodes()[1:] {
		for _, sid := range qPaths[n.Index] {
			qSet[sid] = true
		}
	}
	related := func(x int) bool {
		if qSet[x] {
			return true
		}
		for y := range qSet {
			if s.IsAncestor(x, y) || s.IsAncestor(y, x) {
				return true
			}
		}
		return false
	}
	var out []*View
	for _, v := range views {
		vPaths := pattern.AssociatedPaths(v.Pattern, s)
		keep := false
		for _, n := range v.Pattern.Nodes()[1:] {
			for _, sid := range vPaths[n.Index] {
				if related(sid) {
					keep = true
					break
				}
			}
			if keep {
				break
			}
		}
		if keep {
			out = append(out, v)
		}
	}
	return out
}

// slotPaths returns the set of summary ids a plan slot binds across the
// model, used for the Proposition 3.7 pruning of return-node choices.
func slotPaths(model []*Tree, slot int) map[int]bool {
	out := map[int]bool{}
	for _, t := range model {
		if sl := t.Slots[slot]; sl.Node >= 0 {
			out[t.Nodes[sl.Node].SID] = true
		}
	}
	return out
}

// pathSets returns, per node index of p, the set of summary ids the node
// can bind (its associated paths).
func pathSets(p *pattern.Pattern, s *summary.Summary) []map[int]bool {
	paths := pattern.AssociatedPaths(p, s)
	sets := make([]map[int]bool, len(paths))
	for i, ids := range paths {
		sets[i] = make(map[int]bool, len(ids))
		for _, id := range ids {
			sets[i][id] = true
		}
	}
	return sets
}

// overlaps reports whether two id sets share an element.
func overlaps(a, b map[int]bool) bool {
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// modelKey is a deterministic key for a whole canonical model.
func modelKey(model []*Tree) string {
	parts := make([]string, 1, len(model)+1)
	parts[0] = strconv.Itoa(len(model))
	for _, t := range model {
		parts = append(parts, t.Key())
	}
	return strings.Join(parts, "|")
}
