package core

import (
	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
)

// planContainedInQueryCached decides plan ⊆S q: for every canonical tree
// of the plan (already projected to q's schema), q must produce the
// tree's return tuple on every document realizing it. This is direction
// one of the ≡S test of Algorithm 1 (line 7). The memo caches the
// per-tree decision by canonical key: equal keys mean isomorphic
// decorated trees with corresponding slots and erased subtrees, so the
// covered/uncovered outcome transfers. (The embeddings themselves do not
// transfer — node indexes are instance-specific.) sub may be nil.
func planContainedInQueryCached(planModel []*Tree, q *pattern.Pattern, memo map[string]bool, sub *SubsumeCache) bool {
	for _, te := range planModel {
		if len(te.Slots) != q.Arity() {
			return false
		}
		covered, ok := memo[te.Key()]
		if !ok {
			covered = queryCoversTree(te, q, sub)
			memo[te.Key()] = covered
		}
		if !covered {
			return false
		}
	}
	return true
}

func queryCoversTree(te *Tree, q *pattern.Pattern, sub *SubsumeCache) bool {
	var cover []predicate.Box
	for _, m := range matchPattern(q, te, bottomIfImpossible) {
		if !slotsEqual(m.Slots, te.Slots) {
			continue
		}
		if !matchNestOK(te, m) {
			continue
		}
		if !erasedCompatible(te, m, sub) {
			continue
		}
		cover = append(cover, m.Box)
	}
	return te.Box().CoveredBy(cover)
}

// queryContainedInPlan decides q ⊆S plan: for every canonical tree tq of
// the query, some plan tree must map homomorphically into tq with the right
// slots, and the plan-tree formulas must jointly cover φ_tq.
func queryContainedInPlan(qModel, planModel []*Tree, sub *SubsumeCache) bool {
	for _, tq := range qModel {
		var cover []predicate.Box
		for _, te := range planModel {
			if len(te.Slots) != len(tq.Slots) {
				continue
			}
			for _, h := range treeHoms(te, tq) {
				if !homSlotsOK(te, tq, h, sub) {
					continue
				}
				cover = append(cover, h.Box)
			}
		}
		if !tq.Box().CoveredBy(cover) {
			return false
		}
	}
	return true
}

// homSlotsOK checks slot agreement for a plan-tree-into-query-tree
// homomorphism: bound slots must map onto the query tree's slots, ⊥ slots
// must align with ⊥ slots whose erased subtrees are at least as demanding
// on the plan side (the mirror of erasedCompatible), and nesting sequences
// must agree modulo one-to-one edges.
func homSlotsOK(te, tq *Tree, h treeHom, sub *SubsumeCache) bool {
	for k, sl := range te.Slots {
		qs := tq.Slots[k]
		if sl.Node < 0 {
			if qs.Node >= 0 {
				return false
			}
			continue
		}
		if qs.Node < 0 || h.Map[sl.Node] != qs.Node {
			return false
		}
		if !nestEqual(te.Sum, sl.Nest, qs.Nest, false) {
			return false
		}
	}
	// ⊥ slots: the plan's tuple has ⊥ when its erased view subtrees fail;
	// on documents where q produces the ⊥ tuple, q's erased subtrees fail.
	// Soundness needs: a plan erased subtree match implies a q erased
	// subtree match (hom from q's subtree into the plan's).
	for _, ep := range te.Erased {
		if !ep.hasSlotIn() {
			continue
		}
		ok := false
		for _, eq := range tq.Erased {
			if !eq.hasSlotIn() || eq.Parent != h.Map[ep.Parent] {
				continue
			}
			if homSubsumes(eq.Root, ep.Root) ||
				summaryImplies(tq.Sum, tq.Nodes[eq.Parent].SID, ep.Root, eq.Root, sub) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
