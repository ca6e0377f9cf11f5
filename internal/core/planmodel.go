package core

import (
	"fmt"
	"slices"
	"sort"

	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/summary"
)

// PlanModel computes the canonical model of a plan. Plans compose exactly
// at the canonical-model level: scans contribute their pattern's model,
// joins merge compatible tree pairs by gluing the join nodes and their
// forced ancestor chains, unions take set union, and the
// remaining operators edit slots, formulas or nesting sequences. The model
// fully characterizes the plan's result on every conforming document, which
// is what makes the ≡S test of Algorithm 1 possible without a syntactic
// "pattern for the plan" (Proposition 3.3's unions are implicit here).
func PlanModel(p *Plan, s *summary.Summary, opts ModelOptions) ([]*Tree, error) {
	switch p.Op {
	case OpScan:
		return ModelWith(p.View.Pattern, s, opts)
	case OpJoin:
		left, err := PlanModel(p.Left, s, opts)
		if err != nil {
			return nil, err
		}
		right, err := PlanModel(p.Right, s, opts)
		if err != nil {
			return nil, err
		}
		return joinModels(left, right, p, s, opts)
	case OpUnion:
		byKey := map[string]*Tree{}
		for _, part := range p.Parts {
			m, err := PlanModel(part, s, opts)
			if err != nil {
				return nil, err
			}
			for _, t := range m {
				byKey[t.Key()] = t
			}
		}
		return sortedTrees(byKey), nil
	case OpProject, OpSelectLabel, OpSelectValue, OpUnnest, OpGroupBy:
		in, err := PlanModel(p.Input, s, opts)
		if err != nil {
			return nil, err
		}
		return editModel(p, in, s), nil
	}
	return nil, fmt.Errorf("core: unknown plan op %d", p.Op)
}

// editModel applies the edit of p, a unary operator, to every tree of its
// input's model; the result is deduplicated and sorted by key.
func editModel(p *Plan, model []*Tree, s *summary.Summary) []*Tree {
	byKey := map[string]*Tree{}
	for _, t := range model {
		if out := p.edit(t, s); out != nil {
			byKey[out.Key()] = out
		}
	}
	return sortedTrees(byKey)
}

// edit applies the unary operator p to one canonical tree, returning nil
// when p drops the tree's tuple. The input tree is never modified: slot
// edits share its nodes, a value selection copies the node array.
func (p *Plan) edit(t *Tree, s *summary.Summary) *Tree {
	switch p.Op {
	case OpProject:
		slots := make([]Slot, len(p.Keep))
		for i, k := range p.Keep {
			slots[i] = t.Slots[k]
		}
		return t.withSlots(slots)
	case OpSelectLabel:
		if sl := t.Slots[p.Slot]; sl.Node < 0 || t.Label(sl.Node) != p.Label {
			return nil // σ on ⊥ drops the tuple
		}
		return t
	case OpSelectValue:
		sl := t.Slots[p.Slot]
		if sl.Node < 0 {
			return nil
		}
		out := t.withPred(sl.Node, t.Nodes[sl.Node].Pred.And(p.Pred))
		if !out.Satisfiable() {
			return nil
		}
		return out
	case OpUnnest:
		slots := slices.Clone(t.Slots)
		for _, k := range p.Slots {
			if n := len(slots[k].Nest); n > 0 {
				slots[k].Nest = slots[k].Nest[:n-1]
			}
		}
		return t.withSlots(slots)
	case OpGroupBy:
		slots := slices.Clone(t.Slots)
		for _, k := range p.Slots {
			slots[k].Nest = insertNestStep(s, slots[k].Nest, p.BySID)
		}
		return t.withSlots(slots)
	}
	panic(fmt.Sprintf("core: plan op %d has no tree edit", p.Op))
}

func sortedTrees(byKey map[string]*Tree) []*Tree {
	out := make([]*Tree, 0, len(byKey))
	for _, t := range byKey {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// insertNestStep inserts a grouping step, keeping the sequence ordered by
// summary depth (nesting steps lie along an ancestor chain).
func insertNestStep(s *summary.Summary, nest []int, sid int) []int {
	out := append([]int(nil), nest...)
	out = append(out, sid)
	sort.Slice(out, func(i, j int) bool { return s.Node(out[i]).Depth < s.Node(out[j]).Depth })
	return out
}

// joinModels merges every compatible pair of canonical trees.
func joinModels(left, right []*Tree, p *Plan, s *summary.Summary, opts ModelOptions) ([]*Tree, error) {
	byKey := map[string]*Tree{}
	max := opts.MaxTrees
	if max <= 0 {
		max = DefaultModelOptions().MaxTrees
	}
	for _, t1 := range left {
		for _, t2 := range right {
			m := mergeJoinPair(t1, t2, p, s)
			if m == nil {
				continue
			}
			byKey[m.Key()] = m
			if len(byKey) > max {
				return nil, fmt.Errorf("core: join model exceeds %d trees", max)
			}
		}
	}
	if p.Outer {
		outerVariants(left, p, s, byKey)
		if len(byKey) > max {
			return nil, fmt.Errorf("core: join model exceeds %d trees", max)
		}
	}
	return sortedTrees(byKey), nil
}

// mergeJoinPair merges one pair of trees under the join predicate, or nil
// when the pair is incompatible.
func mergeJoinPair(t1, t2 *Tree, p *Plan, s *summary.Summary) *Tree {
	sl1, sl2 := t1.Slots[p.LeftSlot], t2.Slots[p.RightSlot]
	// Joins operate on top-level (unnested) bound slots.
	if sl1.Node < 0 || sl2.Node < 0 || len(sl1.Nest) > 0 || len(sl2.Nest) > 0 {
		return nil
	}
	s1, s2 := t1.Nodes[sl1.Node].SID, t2.Nodes[sl2.Node].SID
	var x2 int // the t2 node unified with t1's join node
	switch p.Kind {
	case JoinID:
		if s1 != s2 {
			return nil
		}
		x2 = sl2.Node
	case JoinParent:
		if s.Node(s2).Parent != s1 {
			return nil
		}
		x2 = t2.Nodes[sl2.Node].Parent
	case JoinAncestor:
		if !s.IsAncestor(s1, s2) {
			return nil
		}
		x2 = t2.AncestorAtDepth(sl2.Node, s.Node(s1).Depth)
	}
	if x2 < 0 {
		return nil
	}
	out, mapping := mergeTrees(t1, t2, sl1.Node, x2)
	if out == nil {
		return nil
	}
	// Concatenate slots; right slots are remapped, and a nested join adds
	// the grouping step at the join node (Section 4.6).
	for _, sl := range t2.Slots {
		ns := Slot{Node: -1, Attrs: sl.Attrs}
		if sl.Node >= 0 {
			ns.Node = mapping[sl.Node]
			ns.Nest = sl.Nest
			if p.Nested {
				ns.Nest = insertNestStep(s, ns.Nest, s1)
			}
		}
		out.Slots = append(out.Slots, ns)
	}
	return out
}

// mergeTrees glues t2 onto t1, unifying t2's node x2 with t1's node x1 and,
// transitively, their ancestor chains (which carry the same summary tags
// since tree depth equals summary depth). All other t2 nodes are copied as
// fresh nodes: nodes off the shared ancestor chain may bind different
// document nodes even when they share a summary tag. Formulas of unified
// nodes are conjoined; nil is returned when a conjunction is unsatisfiable.
// The returned mapping translates t2 node indexes to merged indexes.
func mergeTrees(t1, t2 *Tree, x1, x2 int) (*Tree, []int) {
	if t1.Nodes[x1].SID != t2.Nodes[x2].SID {
		return nil, nil
	}
	out := t1.clone(len(t2.Nodes))
	mapping := make([]int, len(t2.Nodes))
	for i := range mapping {
		mapping[i] = -1
	}
	// Unify the ancestor chains (same depth ⇒ same summary tag).
	d := t1.Depth(x1)
	for depth := 1; depth <= d; depth++ {
		a := t1.AncestorAtDepth(x1, depth)
		b := t2.AncestorAtDepth(x2, depth)
		mapping[b] = a
		out.Nodes[a].Pred = out.Nodes[a].Pred.And(t2.Nodes[b].Pred)
		if out.Nodes[a].Pred.IsFalse() {
			return nil, nil
		}
	}
	// Copy the remaining t2 nodes in index order (parents precede
	// children by construction).
	for i := range t2.Nodes {
		if mapping[i] >= 0 {
			continue
		}
		parent := t2.Nodes[i].Parent
		if parent < 0 || mapping[parent] < 0 {
			// Should not happen: every node hangs below the root, which
			// is always unified.
			return nil, nil
		}
		mapping[i] = out.AddNode(mapping[parent], t2.Nodes[i].SID, t2.Nodes[i].Pred)
	}
	// Carry t2's erased-subtree records.
	for _, e := range t2.Erased {
		out.Erased = append(out.Erased, ErasedSub{Parent: mapping[e.Parent], Root: e.Root})
	}
	return out, mapping
}

// treeHoms enumerates the homomorphisms of canonical tree te into canonical
// tree tq: root to root, parent-child edges preserved, equal summary tags
// (implied), jointly satisfiable formulas. Used to decide q ⊆S plan: a
// tuple of the plan appears on every document realizing tq exactly when
// some plan tree maps into tq on the right slots.
type treeHom struct {
	Map []int // te node -> tq node
	Box predicate.Box
}

func treeHoms(te, tq *Tree) []treeHom {
	if te.Nodes[0].SID != tq.Nodes[0].SID {
		return nil
	}
	var out []treeHom
	mapping := make([]int, len(te.Nodes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(te.Nodes) {
			hm := treeHom{Map: append([]int(nil), mapping...), Box: predicate.NewBox()}
			for n, m := range hm.Map {
				if !te.Nodes[n].Pred.IsTrue() {
					hm.Box = hm.Box.Constrain(m, te.Nodes[n].Pred)
				}
			}
			if !hm.Box.IsEmpty() {
				out = append(out, hm)
			}
			return
		}
		if te.Nodes[i].Parent < 0 {
			mapping[i] = 0
			rec(i + 1)
			return
		}
		parentImg := mapping[te.Nodes[i].Parent]
		for _, c := range tq.Nodes[parentImg].Children {
			if tq.Nodes[c].SID != te.Nodes[i].SID {
				continue
			}
			if tq.Nodes[c].Pred.And(te.Nodes[i].Pred).IsFalse() {
				continue
			}
			mapping[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// outerProbe builds, for an outer join against a right-side scan, the
// synthetic optional subtree whose absence characterizes the ⊥ tuples: a
// pattern describing "the right side has a match joining this anchor".
// The probe must be exact for containment to remain sound in both
// directions, so outer joins are only modeled when the right view is a
// chain pattern (single-child nodes, predicates only on the join leaf)
// and either all axes are child steps or the leaf is a 2-node //leaf.
// It returns nil when no exact probe exists for this anchor tag.
func outerProbe(right *Plan, rightSlot, anchorSID int, kind JoinKind, s *summary.Summary) *pattern.Node {
	if right.Op != OpScan {
		return nil
	}
	p := right.View.Pattern
	// Collect the chain and verify shape.
	var chain []*pattern.Node
	for n := p.Root; ; {
		chain = append(chain, n)
		if len(n.Children) == 0 {
			break
		}
		if len(n.Children) != 1 {
			return nil
		}
		n = n.Children[0]
	}
	leaf := chain[len(chain)-1]
	if leaf != p.Returns()[rightSlot] {
		return nil
	}
	for _, n := range chain[:len(chain)-1] {
		if !n.Pred.IsTrue() || n.Optional {
			return nil
		}
	}
	anchorDepth := s.Node(anchorSID).Depth

	allChild := true
	for _, n := range chain[1:] {
		if n.Axis != pattern.Child {
			allChild = false
		}
	}
	switch {
	case allChild:
		// Pattern depth equals summary depth; the anchor must sit on the
		// chain with matching labels above it.
		if anchorDepth >= len(chain) {
			return nil
		}
		pathChain, ok := s.ChainBetween(summary.RootID, anchorSID)
		if !ok {
			return nil
		}
		for i := 0; i < anchorDepth; i++ {
			if !chain[i].MatchesLabel(s.Node(pathChain[i]).Label) {
				return nil
			}
		}
		// Probe: the child chain below the anchor.
		var root *pattern.Node
		var cur *pattern.Node
		for _, n := range chain[anchorDepth:] {
			c := &pattern.Node{Label: n.Label, Axis: pattern.Child, Optional: root == nil, Pred: n.Pred, Index: -1}
			if root == nil {
				root = c
			} else {
				cur.Children = append(cur.Children, c)
				c.Parent = cur
			}
			cur = c
		}
		cur.Attrs = leaf.Attrs
		return root
	case len(chain) == 2 && leaf.Axis == pattern.Descendant:
		// root(//leaf): the join kind decides the probe's reach — a parent
		// join misses only leaf-labeled children of the anchor, an
		// ancestor join only descendants.
		axis := pattern.Descendant
		if kind == JoinParent {
			axis = pattern.Child
		}
		return &pattern.Node{
			Label: leaf.Label, Axis: axis, Optional: true,
			Pred: leaf.Pred, Attrs: leaf.Attrs, Index: -1,
		}
	}
	return nil
}

// outerVariants adds, for every left tree, the ⊥-padded variant of an
// outer join, recording the probe as an erased subtree. Variants whose
// probe is forced by the tree itself (strong edges) are unrealizable and
// skipped, mirroring the optional-edge maximality filter.
func outerVariants(left []*Tree, p *Plan, s *summary.Summary, byKey map[string]*Tree) {
	rightSlots := p.Right.OutSlots()
	for _, t1 := range left {
		sl1 := t1.Slots[p.LeftSlot]
		if sl1.Node < 0 || len(sl1.Nest) > 0 {
			continue
		}
		probe := outerProbe(p.Right, p.RightSlot, t1.Nodes[sl1.Node].SID, p.Kind, s)
		if probe == nil {
			continue
		}
		if forcedMatchExists(probe, sl1.Node, t1) {
			continue
		}
		out := t1.clone(0)
		for _, ps := range rightSlots {
			out.Slots = append(out.Slots, Slot{Node: -1, Attrs: ps.Attrs})
		}
		out.Erased = append(out.Erased, ErasedSub{Parent: sl1.Node, Root: probe})
		byKey[out.Key()] = out
	}
}
