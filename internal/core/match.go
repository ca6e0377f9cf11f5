package core

import (
	"slices"

	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
)

// bottomPolicy controls when an optional pattern edge may bind ⊥ while
// matching into a canonical tree. The two sides of the containment test
// need opposite conservative defaults (both are sound):
//
//   - bottomUnlessForced (canonical-model generation): ⊥ is allowed unless
//     the tree forces a match — a structural embedding whose every node's
//     tree formula implies the pattern formula. Used by the maximality
//     filter, it keeps every possibly-realizable ⊥ tuple.
//   - bottomIfImpossible (container matching): ⊥ is allowed only when no
//     structural embedding with jointly satisfiable formulas exists, so a
//     container pattern never claims a ⊥ it might not produce.
type bottomPolicy int

const (
	bottomUnlessForced bottomPolicy = iota
	bottomIfImpossible
)

// match is one decorated embedding of a pattern into a canonical tree.
type match struct {
	// Slots holds the tree node bound to each pattern return node, -1 = ⊥.
	Slots []int
	// Box is the conjunction of pattern formulas over tree node variables.
	Box predicate.Box
	// Nest holds, per return slot, the grouping summary ids (nil for ⊥).
	Nest [][]int
	// Erased lists the optional subtrees the embedding bound to ⊥ and the
	// tree node their parent was bound to.
	Erased []ErasedSub
}

// matchPattern enumerates the embeddings of p into canonical tree t under
// the given ⊥ policy. Pattern edges follow tree parent-child edges for /
// and tree ancestry for //, into implied nodes too: a match may bind any
// node of the tree's closure, by its implied id.
func matchPattern(p *pattern.Pattern, t *Tree, pol bottomPolicy) []match {
	if !p.Root.MatchesLabel(t.Label(0)) {
		return nil
	}
	if t.Nodes[0].Pred.And(p.Root.Pred).IsFalse() {
		return nil
	}
	assigns := enumMatch(p.Root, 0, t, pol, p.Size())
	out := make([]match, 0, len(assigns))
	for _, a := range assigns {
		m := match{
			Slots: make([]int, p.Arity()),
			Box:   predicate.NewBox(),
			Nest:  make([][]int, p.Arity()),
		}
		ok := true
		for _, n := range p.Nodes() {
			x := a[n.Index]
			if x < 0 || n.Pred.IsTrue() {
				continue
			}
			// The box is this match's own: constrain it in place.
			f := n.Pred
			if cur, found := m.Box[x]; found {
				f = cur.And(f)
			}
			if f.IsFalse() {
				ok = false
				break
			}
			m.Box[x] = f
		}
		if !ok {
			continue
		}
		for k, rn := range p.Returns() {
			x := a[rn.Index]
			if x < 0 {
				m.Slots[k] = -1
				continue
			}
			m.Slots[k] = x
			m.Nest[k] = nestOf(rn, a, t)
		}
		// Record erased optional subtrees: optional nodes bound ⊥ whose
		// parent is bound.
		for _, n := range p.Nodes() {
			if n.Parent == nil || !n.Optional {
				continue
			}
			if px := a[n.Parent.Index]; a[n.Index] < 0 && px >= 0 {
				m.Erased = append(m.Erased, ErasedSub{Parent: px, Root: n})
			}
		}
		out = append(out, m)
	}
	return out
}

// nestOf computes the nesting sequence of a bound return node under an
// assignment: the summary ids of the images of its ancestors whose
// downward edge is nested, root-first.
func nestOf(rn *pattern.Node, a []int, t *Tree) []int {
	var rev []int
	for cur := rn; cur.Parent != nil; cur = cur.Parent {
		if cur.Nested {
			px := a[cur.Parent.Index]
			rev = append(rev, t.sid(px))
		}
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// enumMatch returns the assignments for the pattern subtree rooted at n
// with n bound to tree node x. An assignment maps pattern indexes to tree
// nodes (-1 = ⊥) and has one entry per node of the pattern (size); only
// those of n's subtree, a preorder range, are set.
func enumMatch(n *pattern.Node, x int, t *Tree, pol bottomPolicy, size int) [][]int {
	first := make([]int, size)
	first[n.Index] = x
	results := [][]int{first}
	for _, c := range n.Children {
		var childAssigns [][]int
		for _, cand := range matchCandidates(c, x, t) {
			childAssigns = append(childAssigns, enumMatch(c, cand, t, pol, size)...)
		}
		allowBottom := false
		if len(childAssigns) == 0 {
			if !c.Optional {
				return nil
			}
			allowBottom = true
		} else if c.Optional && pol == bottomUnlessForced && !forcedMatchExists(c, x, t) {
			allowBottom = true
		}
		lo, hi := c.Index, subtreeEnd(c)
		if allowBottom {
			erased := make([]int, size)
			for i := lo; i < hi; i++ {
				erased[i] = -1
			}
			childAssigns = append(childAssigns, erased)
		}
		if len(childAssigns) == 1 {
			// Every result is this call's own: extend it in place.
			for _, r := range results {
				copy(r[lo:hi], childAssigns[0][lo:hi])
			}
			continue
		}
		merged := make([][]int, 0, len(results)*len(childAssigns))
		for _, r := range results {
			for _, ca := range childAssigns {
				m := slices.Clone(r)
				copy(m[lo:hi], ca[lo:hi])
				merged = append(merged, m)
			}
		}
		results = merged
	}
	return results
}

// subtreeEnd returns one past the last preorder index of n's subtree.
func subtreeEnd(n *pattern.Node) int {
	for len(n.Children) > 0 {
		n = n.Children[len(n.Children)-1]
	}
	return n.Index + 1
}

// matchCandidates returns the tree nodes that pattern node c can bind under
// parent binding x: label match, axis compatibility, and a jointly
// satisfiable formula.
func matchCandidates(c *pattern.Node, x int, t *Tree) []int {
	var out []int
	eachStep(c, x, t, func(y int) {
		if c.MatchesLabel(t.Label(y)) && !t.pred(y).And(c.Pred).IsFalse() {
			out = append(out, y)
		}
	})
	return out
}

// eachStep calls f on every tree node, materialized or implied, that
// pattern node c's axis reaches from node x.
func eachStep(c *pattern.Node, x int, t *Tree, f func(y int)) {
	if c.Axis == pattern.Child {
		t.eachChild(x, f)
	} else {
		t.eachDescendant(x, f)
	}
}

// forcedMatchExists reports whether the tree forces a match for the
// pattern subtree rooted at c under parent binding x: a structural
// embedding where every tree node's formula implies the pattern node's
// formula (so every conforming document realizing the tree matches it).
// Optional descendants of c are ignored — they cannot block the match.
func forcedMatchExists(c *pattern.Node, x int, t *Tree) bool {
	var forced func(n *pattern.Node, px int) bool
	forced = func(n *pattern.Node, px int) bool {
		found := false
		eachStep(n, px, t, func(y int) {
			if found || !n.MatchesLabel(t.Label(y)) || !t.pred(y).Implies(n.Pred) {
				return
			}
			for _, cc := range n.Children {
				if !cc.Optional && !forced(cc, y) {
					return
				}
			}
			found = true
		})
		return found
	}
	return forced(c, x)
}
