package core

import (
	"fmt"

	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/summary"
)

// ModelOptions tunes canonical model construction.
type ModelOptions struct {
	// MaxTrees caps the number of canonical trees; Model fails beyond it.
	// The theoretical bound is |S|^|p| (Section 3.1), but practical
	// patterns stay tiny (Section 5).
	MaxTrees int
	// Enhanced applies the strong-edge closure of Section 4.1, so that
	// integrity constraints participate in containment. Plain Dataguide
	// reasoning is obtained by disabling it.
	Enhanced bool
}

// DefaultModelOptions enables enhanced summaries with a generous cap.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{MaxTrees: 200000, Enhanced: true}
}

// Model computes the S-canonical model mod_S(p) with default options.
func Model(p *pattern.Pattern, s *summary.Summary) ([]*Tree, error) {
	return ModelWith(p, s, DefaultModelOptions())
}

// ModelWith computes mod_S(p): one canonical tree per embedding of p into
// S (Section 2.4), extended with
//
//   - strong-edge closure for enhanced summaries (Section 4.1),
//   - node formulas for decorated patterns (Section 4.2),
//   - erased-subtree variants for optional edges, kept only when the
//     resulting ⊥ tuple is realizable (Section 4.3), and
//   - per-slot nesting sequences for nested edges (Section 4.5).
//
// The result is deduplicated and sorted by canonical key.
func ModelWith(p *pattern.Pattern, s *summary.Summary, opts ModelOptions) ([]*Tree, error) {
	if opts.MaxTrees <= 0 {
		opts.MaxTrees = DefaultModelOptions().MaxTrees
	}
	paths := pattern.AssociatedPaths(p, s)
	nodes := p.Nodes()
	n := len(nodes)

	assign := make([]int, n) // summary id per pattern node; -1 = erased
	for i := range assign {
		assign[i] = -1
	}
	erased := make([]bool, n)

	byKey := map[string]*Tree{}
	var overflow error

	emit := func() {
		t := buildTree(p, s, assign, erased, opts)
		if t == nil {
			return
		}
		if _, ok := byKey[t.Key()]; !ok {
			byKey[t.Key()] = t
		}
	}

	var rec func(pos int)
	rec = func(pos int) {
		if overflow != nil {
			return
		}
		if pos == n {
			if len(byKey) >= opts.MaxTrees {
				overflow = fmt.Errorf("core: canonical model exceeds %d trees", opts.MaxTrees)
				return
			}
			emit()
			return
		}
		node := nodes[pos]
		if node.Parent != nil && erased[node.Parent.Index] {
			erased[pos] = true
			rec(pos + 1)
			erased[pos] = false
			return
		}
		// Candidates compatible with the parent's assignment.
		for _, sid := range paths[pos] {
			if node.Parent != nil {
				psid := assign[node.Parent.Index]
				if node.Axis == pattern.Child {
					if s.Node(sid).Parent != psid {
						continue
					}
				} else if !s.IsAncestor(psid, sid) {
					continue
				}
			}
			assign[pos] = sid
			rec(pos + 1)
			assign[pos] = -1
		}
		if node.Parent != nil && node.Optional {
			erased[pos] = true
			rec(pos + 1)
			erased[pos] = false
		}
	}
	rec(0)
	if overflow != nil {
		return nil, overflow
	}

	out := sortedTrees(byKey)

	// Maximality filter for optional edges: keep a tree only if its return
	// tuple (⊥s included) is actually produced by p on the tree itself —
	// an erased optional subtree whose match is forced by the tree's own
	// nodes makes the ⊥ tuple unrealizable (Section 4.3).
	if p.HasOptional() {
		kept := out[:0]
		for _, t := range out {
			if tupleRealizable(p, t) {
				kept = append(kept, t)
			}
		}
		out = kept
	}
	return out, nil
}

// buildTree constructs one canonical tree from an embedding; nil when the
// root is unassigned or a formula is unsatisfiable.
func buildTree(p *pattern.Pattern, s *summary.Summary, assign []int, erased []bool, opts ModelOptions) *Tree {
	if assign[p.Root.Index] < 0 {
		return nil
	}
	t := NewTree(s)
	t.Nodes[0].Pred = p.Root.Pred
	t.Slots = make([]Slot, p.Arity())
	slotOf := map[int]int{}
	for k, rn := range p.Returns() {
		slotOf[rn.Index] = k
	}

	var build func(n *pattern.Node, treeIdx int, nest []int) bool
	build = func(n *pattern.Node, treeIdx int, nest []int) bool {
		if k, ok := slotOf[n.Index]; ok {
			t.Slots[k] = Slot{Node: treeIdx, Attrs: n.Attrs, Nest: append([]int(nil), nest...)}
		}
		for _, c := range n.Children {
			if erased[c.Index] {
				t.Erased = append(t.Erased, ErasedSub{Parent: treeIdx, Root: c})
				markBottom(p, c, slotOf, t)
				continue
			}
			childIdx := t.AddChain(treeIdx, assign[c.Index], c.Pred)
			childNest := nest
			if c.Nested {
				childNest = append(append([]int(nil), nest...), t.Nodes[treeIdx].SID)
			}
			if !build(c, childIdx, childNest) {
				return false
			}
		}
		return true
	}
	if !build(p.Root, 0, nil) {
		return nil
	}
	if opts.Enhanced {
		applyStrongClosure(t)
	}
	if !t.Satisfiable() {
		return nil
	}
	return t
}

// markBottom sets ⊥ slots for all return nodes in an erased subtree.
func markBottom(p *pattern.Pattern, n *pattern.Node, slotOf map[int]int, t *Tree) {
	if k, ok := slotOf[n.Index]; ok {
		t.Slots[k] = Slot{Node: -1, Attrs: n.Attrs}
	}
	for _, c := range n.Children {
		markBottom(p, c, slotOf, t)
	}
}

// applyStrongClosure adds, under every tree node, the summary children
// reachable by strong edges that are not already present (Section 4.1): a
// conforming document is guaranteed to contain them.
func applyStrongClosure(t *Tree) {
	for i := 0; i < len(t.Nodes); i++ { // t.Nodes grows during the loop
		have := map[int]bool{}
		for _, c := range t.Nodes[i].Children {
			have[t.Nodes[c].SID] = true
		}
		for _, sc := range t.Sum.Node(t.Nodes[i].SID).Children {
			if t.Sum.Node(sc).Strong && !have[sc] {
				t.AddNode(i, sc, predicate.True())
			}
		}
	}
}

// tupleRealizable reports whether the tree's own return tuple is in p(t):
// the optional-edge maximality check.
func tupleRealizable(p *pattern.Pattern, t *Tree) bool {
	matches := matchPattern(p, t, bottomUnlessForced)
	for _, m := range matches {
		if slotsEqual(m.Slots, t.Slots) {
			return true
		}
	}
	return false
}

func slotsEqual(got []int, want []Slot) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i].Node {
			return false
		}
	}
	return true
}
