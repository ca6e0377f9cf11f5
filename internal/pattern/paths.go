package pattern

import (
	"sort"

	"xmlviews/internal/summary"
)

// AssociatedPaths computes, for every pattern node, the set of summary
// nodes the pattern node can map to under some embedding of the pattern
// into the summary (Definition 2.1). The result is indexed by node Index;
// each entry is sorted. Optional subtrees do not constrain their ancestors
// (they may bind ⊥), but their own sets are restricted to summary nodes
// reachable from a surviving parent candidate.
//
// The computation is the O(|p| × |S|) procedure noted after Definition 2.1:
// a top-down candidate pass, a bottom-up arc-consistency prune, and a final
// top-down prune. On trees this is exact.
func AssociatedPaths(p *Pattern, s *summary.Summary) [][]int {
	n := p.Size()
	cand := make([]map[int]bool, n)

	// Top-down: initial candidates.
	root := p.Root
	cand[root.Index] = map[int]bool{}
	if root.MatchesLabel(s.Node(summary.RootID).Label) {
		cand[root.Index][summary.RootID] = true
	}
	var down func(m *Node)
	down = func(m *Node) {
		for _, c := range m.Children {
			set := map[int]bool{}
			for sp := range cand[m.Index] {
				addCandidates(s, sp, c, set)
			}
			cand[c.Index] = set
			down(c)
		}
	}
	down(root)

	// Bottom-up: a candidate survives only if every non-optional child has
	// a compatible surviving candidate.
	var up func(m *Node)
	up = func(m *Node) {
		for _, c := range m.Children {
			up(c)
		}
		for sp := range cand[m.Index] {
			ok := true
			for _, c := range m.Children {
				if c.Optional {
					continue
				}
				if !hasCompatible(s, sp, c, cand[c.Index]) {
					ok = false
					break
				}
			}
			if !ok {
				delete(cand[m.Index], sp)
			}
		}
	}
	up(root)

	// Final top-down: drop candidates unreachable from surviving parents.
	var prune func(m *Node)
	prune = func(m *Node) {
		for _, c := range m.Children {
			reach := map[int]bool{}
			for sp := range cand[m.Index] {
				addCandidates(s, sp, c, reach)
			}
			for sc := range cand[c.Index] {
				if !reach[sc] {
					delete(cand[c.Index], sc)
				}
			}
			prune(c)
		}
	}
	prune(root)

	out := make([][]int, n)
	for i, set := range cand {
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		out[i] = ids
	}
	return out
}

// addCandidates adds to set the summary nodes under sp that pattern node c
// can map to along its axis.
func addCandidates(s *summary.Summary, sp int, c *Node, set map[int]bool) {
	if c.Axis == Child {
		for _, sc := range s.Node(sp).Children {
			if c.MatchesLabel(s.Node(sc).Label) {
				set[sc] = true
			}
		}
		return
	}
	s.WalkDescendants(sp, func(sc int) {
		if c.MatchesLabel(s.Node(sc).Label) {
			set[sc] = true
		}
	})
}

// hasCompatible reports whether some candidate of c is a child/descendant
// of sp along c's axis.
func hasCompatible(s *summary.Summary, sp int, c *Node, candC map[int]bool) bool {
	for sc := range candC {
		if c.Axis == Child {
			if s.Node(sc).Parent == sp {
				return true
			}
		} else if s.IsAncestor(sp, sc) {
			return true
		}
	}
	return false
}

// SatisfiableUnder reports whether the pattern has at least one embedding
// into the summary (treating optional subtrees as absent if necessary):
// the S-satisfiability test of Section 2.4.
func SatisfiableUnder(p *Pattern, s *summary.Summary) bool {
	paths := AssociatedPaths(p, s)
	// The root (and transitively every non-optional node) must have at
	// least one surviving candidate.
	var check func(n *Node) bool
	check = func(n *Node) bool {
		if len(paths[n.Index]) == 0 {
			return false
		}
		for _, c := range n.Children {
			if c.Optional {
				continue
			}
			if !check(c) {
				return false
			}
		}
		return true
	}
	return check(p.Root)
}
