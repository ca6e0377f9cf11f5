package core

import (
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// adaptToQuery produces the candidate adaptations of a plan to the query's
// schema: the return-slot choices of Proposition 3.7, the σ label/value
// selections of Section 4.6, a projection onto the chosen slots in query
// order, and the unnest/group-by nesting adjustments. Each adaptation is a
// new plan–model pair ready for the two-way containment test.
func (rw *rewriter) adaptToQuery(e entry) []entry {
	qReturns := rw.q.Returns()
	slots := e.plan.OutSlots()
	if len(slots) < len(qReturns) {
		return nil
	}

	// Candidate plan slots per query slot (Proposition 3.7: the plan
	// slot's paths must be able to fall within the query slot's paths).
	cand := make([][]int, len(qReturns))
	for k, rn := range qReturns {
		for j, ps := range slots {
			// The slot must carry every required attribute.
			if rn.Attrs&^ps.Attrs == 0 && overlaps(e.slotP[j], rw.qSets[rn.Index]) {
				cand[k] = append(cand[k], j)
			}
		}
		if len(cand[k]) == 0 {
			return nil
		}
	}

	const maxAssignments = 128
	var out []entry
	assign := make([]int, len(qReturns))
	var rec func(k int)
	rec = func(k int) {
		if len(out) >= maxAssignments {
			return
		}
		if k == len(qReturns) {
			if a, ok := rw.buildAdapted(e, assign); ok {
				out = append(out, a)
			}
			return
		}
		for _, j := range cand[k] {
			assign[k] = j
			rec(k + 1)
		}
	}
	rec(0)
	return out
}

// buildAdapted constructs one adapted plan–model pair for a slot
// assignment, or ok=false when a required selection cannot be expressed.
func (rw *rewriter) buildAdapted(e entry, assign []int) (entry, bool) {
	plan := e.plan
	model := e.model
	slots := e.plan.OutSlots()
	qReturns := rw.q.Returns()

	// Selections (Section 4.6): align labels and value predicates.
	for k, rn := range qReturns {
		j := assign[k]
		if rn.Label != pattern.Wildcard && slotNeedsLabelSelect(model, j, rn.Label) {
			if !slots[j].Attrs.Has(pattern.AttrLabel) {
				return entry{}, false
			}
			plan = &Plan{Op: OpSelectLabel, Input: plan, Slot: j, Label: rn.Label}
			model = editModel(plan, model, rw.s)
		}
		if !rn.Pred.IsTrue() && slotNeedsValueSelect(model, j, rn) {
			if !slots[j].Attrs.Has(pattern.AttrValue) {
				return entry{}, false
			}
			plan = &Plan{Op: OpSelectValue, Input: plan, Slot: j, Pred: rn.Pred}
			model = editModel(plan, model, rw.s)
		}
	}
	if len(model) == 0 {
		return entry{}, false
	}

	// Value predicates on internal (non-return) query nodes: when the plan
	// exposes a V slot pinned to the predicate node's paths, filter it
	// before projecting it away (Section 4.6's σφ, applied one level more
	// generally). The final two-way containment test validates the choice.
	assigned := map[int]bool{}
	for _, j := range assign {
		assigned[j] = true
	}
	for _, qn := range rw.q.Nodes() {
		if qn.IsReturn() || qn.Pred.IsTrue() {
			continue
		}
		qSet := rw.qSets[qn.Index]
		for j, ps := range slots {
			if assigned[j] || !ps.Attrs.Has(pattern.AttrValue) {
				continue
			}
			within := true
			for sid := range slotPaths(model, j) {
				if !qSet[sid] {
					within = false
					break
				}
			}
			if !within || !slotNeedsValueSelect(model, j, qn) {
				continue
			}
			plan = &Plan{Op: OpSelectValue, Input: plan, Slot: j, Pred: qn.Pred}
			model = editModel(plan, model, rw.s)
			assigned[j] = true
			break
		}
	}
	if len(model) == 0 {
		return entry{}, false
	}

	// Projection onto the chosen slots, in query order.
	plan = &Plan{Op: OpProject, Input: plan, Keep: append([]int(nil), assign...)}
	model = editModel(plan, model, rw.s)

	// Nesting adjustment (Section 4.6, nested patterns).
	plan, model, ok := rw.adjustNesting(plan, model)
	if !ok {
		return entry{}, false
	}
	return entry{plan: plan, model: model, key: modelKey(model)}, true
}

func slotNeedsLabelSelect(model []*Tree, j int, label string) bool {
	for _, t := range model {
		if sl := t.Slots[j]; sl.Node >= 0 && t.Label(sl.Node) != label {
			return true
		}
	}
	return false
}

func slotNeedsValueSelect(model []*Tree, j int, rn *pattern.Node) bool {
	for _, t := range model {
		if sl := t.Slots[j]; sl.Node >= 0 && !t.Nodes[sl.Node].Pred.Implies(rn.Pred) {
			return true
		}
	}
	return false
}

// adjustNesting reconciles the plan's per-slot nesting sequences with the
// query's: extra plan steps are removed with unnest; missing steps are
// added with group-by when some plan slot's ID identifies the grouping
// ancestor. Representative sequences are taken from the first trees; the
// final containment tests verify every tree.
func (rw *rewriter) adjustNesting(plan *Plan, model []*Tree) (*Plan, []*Tree, bool) {
	if len(model) == 0 || len(rw.qModel) == 0 {
		return plan, model, true
	}
	for k := range rw.q.Returns() {
		planNest := canonNest(rw.s, model[0].Slots[k].Nest)
		qNest := canonNest(rw.s, representativeNest(rw.qModel, k))
		if model[0].Slots[k].Node < 0 {
			continue
		}
		switch {
		case len(planNest) > len(qNest):
			for i := len(planNest); i > len(qNest); i-- {
				plan = &Plan{Op: OpUnnest, Input: plan, Slots: []int{k}}
				model = editModel(plan, model, rw.s)
			}
		case len(planNest) < len(qNest):
			// Add each missing step by grouping on an ID-bearing slot
			// bound at that summary node.
			missing := missingSteps(planNest, qNest)
			for _, sid := range missing {
				bySlot := findGroupingSlot(rw.s, model, plan.OutSlots(), sid)
				if bySlot < 0 {
					return nil, nil, false
				}
				plan = &Plan{Op: OpGroupBy, Input: plan, Slots: []int{k}, BySID: sid, BySlot: bySlot}
				model = editModel(plan, model, rw.s)
			}
		}
	}
	return plan, model, true
}

// representativeNest returns the first bound nesting sequence of query slot
// k across the query model.
func representativeNest(qModel []*Tree, k int) []int {
	for _, t := range qModel {
		if t.Slots[k].Node >= 0 {
			return t.Slots[k].Nest
		}
	}
	return nil
}

// missingSteps returns the canonical steps of want not present in have
// (multiset difference, order preserved).
func missingSteps(have, want []int) []int {
	used := make([]bool, len(have))
	var out []int
	for _, w := range want {
		found := false
		for i, h := range have {
			if !used[i] && h == w {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			out = append(out, w)
		}
	}
	return out
}

// findGroupingSlot locates a slot carrying an ID whose bound summary node
// canonicalizes to the nesting step, across every model tree.
func findGroupingSlot(s *summary.Summary, model []*Tree, slots []PlanSlot, sid int) int {
	want := canonNest(s, []int{sid})[0]
	for j, ps := range slots {
		if !ps.Attrs.Has(pattern.AttrID) {
			continue
		}
		ok := true
		for _, t := range model {
			sl := t.Slots[j]
			if sl.Node < 0 || canonNest(s, []int{t.Nodes[sl.Node].SID})[0] != want {
				ok = false
				break
			}
		}
		if ok {
			return j
		}
	}
	return -1
}
