// Vectorized execution over columnar block handles (ROADMAP: batch-at-a-
// time execution directly over segments). Selection chains above a plain
// view scan run on dictionary codes: the predicate constant is translated
// into the column dictionary once, per-block zone maps skip blocks that
// cannot match, surviving blocks are filtered by integer compares, and the
// string/content columns are materialized only for surviving rows — by
// sharing the backing relation's tuples, so results are byte-identical to
// the row-at-a-time path. Structural joins use the same zone maps to skip
// descendant-side blocks outside the ancestors' ID range.

package algebra

import (
	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/predicate"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
)

// ExecStats, when attached to Options, accumulates what the vectorized
// path did during one execution; the serving layer turns it into metrics
// and the plan cache records which path ran. It is written by the single
// executor goroutine only.
type ExecStats struct {
	// VecSelectLabel and VecSelectValue count vectorized selection kernels
	// run (one per selection operator executed on dictionary codes).
	VecSelectLabel int
	VecSelectValue int
	// VecJoinPrunes counts structural-join scans pruned by zone-map ID
	// ranges.
	VecJoinPrunes int
	// BlocksScanned and BlocksSkipped count zone-map consultations: skipped
	// blocks were never touched row-wise.
	BlocksScanned int
	BlocksSkipped int
}

// Vectorized reports whether any vectorized kernel ran.
func (s *ExecStats) Vectorized() bool {
	return s != nil && (s.VecSelectLabel > 0 || s.VecSelectValue > 0 || s.VecJoinPrunes > 0)
}

// vectorSelect executes a chain of selections over a plain view scan on
// the view's columnar block handle. ok is false when the plan shape or the
// store cannot serve the vectorized path; the caller then falls back to
// row-at-a-time execution (which also reports the precise error for
// malformed plans — this function never invents new failure modes).
func (ex *executor) vectorSelect(p *core.Plan) (*table, bool, error) {
	var sels []*core.Plan
	cur := p
	for cur.Op == core.OpSelectLabel || cur.Op == core.OpSelectValue {
		sels = append(sels, cur)
		cur = cur.Input
	}
	if cur.Op != core.OpScan || cur.View == nil {
		return nil, false, nil
	}
	blocks := ex.st.Blocks(cur.View)
	if blocks == nil {
		return nil, false, nil
	}
	rel := blocks.Extent()

	// Resolve every selection up front: column, dictionary code (σL) or
	// per-dictionary-entry verdicts (σV, the predicate parsed and evaluated
	// once per distinct value instead of once per row).
	type selSpec struct {
		col     *store.Column
		isLabel bool
		code    uint32
		codeOK  bool
		pass    []bool
	}
	specs := make([]selSpec, 0, len(sels))
	// Apply innermost-first, so the scan-adjacent selection drives the
	// zone-map block skipping.
	for i := len(sels) - 1; i >= 0; i-- {
		s := sels[i]
		attr := "l"
		if s.Op == core.OpSelectValue {
			attr = "v"
		}
		ci := rel.ColIndex(view.SlotCol(s.Slot, attr))
		if ci < 0 {
			return nil, false, nil
		}
		spec := selSpec{col: blocks.Column(ci), isLabel: s.Op == core.OpSelectLabel}
		if spec.isLabel {
			spec.code, spec.codeOK = spec.col.Code(s.Label)
		} else {
			spec.pass = spec.col.EvalDict(func(v string) bool { return s.Pred.Eval(predicate.ParseAtom(v)) })
		}
		specs = append(specs, spec)
	}

	survives := func(sp selSpec, code int32) bool {
		if code < 0 {
			return false
		}
		if sp.isLabel {
			return sp.codeOK && uint32(code) == sp.code
		}
		return int(code) < len(sp.pass) && sp.pass[code]
	}

	// First selection: walk blocks, consulting the zone map.
	first := specs[0]
	var idx []int
	nb := blocks.NumBlocks()
	for bi := 0; bi < nb; bi++ {
		if err := ex.cancelled(); err != nil {
			return nil, true, err
		}
		var skip bool
		if z := first.col.Zone(bi); first.isLabel {
			skip = !first.codeOK || !z.HasCode(first.code)
		} else {
			skip = !z.AnyCode(first.pass)
		}
		if skip {
			if ex.opts.Stats != nil {
				ex.opts.Stats.BlocksSkipped++
			}
			continue
		}
		if ex.opts.Stats != nil {
			ex.opts.Stats.BlocksScanned++
		}
		lo, hi := bi*store.BlockRows, (bi+1)*store.BlockRows
		if hi > rel.Len() {
			hi = rel.Len()
		}
		for i := lo; i < hi; i++ {
			if survives(first, first.col.RowCode(i)) {
				idx = append(idx, i)
			}
		}
	}
	// Remaining selections filter the survivor list in place.
	for _, sp := range specs[1:] {
		kept := idx[:0]
		for n, i := range idx {
			if n%cancelCheckEvery == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, true, err
				}
			}
			if survives(sp, sp.col.RowCode(i)) {
				kept = append(kept, i)
			}
		}
		idx = kept
	}
	if ex.opts.Stats != nil {
		for _, sp := range specs {
			if sp.isLabel {
				ex.opts.Stats.VecSelectLabel++
			} else {
				ex.opts.Stats.VecSelectValue++
			}
		}
	}

	// Late materialization: only surviving rows reach the output. A plain
	// view's rows share the extent's tuples, exactly as the row path shares
	// its input rows. A view with virtual slots derives its ID columns here,
	// so only survivors pay the derivation (the row path derives them for
	// every row before filtering — same values, same column order).
	out, err := ex.materialize(rel, cur.View, len(idx), func(n int) int { return idx[n] })
	if err != nil {
		return nil, true, err
	}
	return &table{rel: out.Extent(), slots: core.Scan(cur.View).OutSlots()}, true, nil
}

// joinRight produces the right input of a join. For structural joins whose
// right child is a plain view scan it consults the view's zone maps to
// skip blocks wholly outside the left side's ancestor ID range — a pruned
// row cannot be a descendant (or child) of any left row, so the join
// output is unchanged, order included.
func (ex *executor) joinRight(p *core.Plan, left *table) (*table, error) {
	// Views with virtual slots are excluded: the pruned scan emits the
	// stored columns only, but their row-path scan appends derived ID
	// columns the join output must carry.
	if p.Kind != core.JoinID && p.Right.Op == core.OpScan &&
		p.Right.View != nil && len(p.Right.View.VirtualSlots) == 0 {
		if blocks := ex.st.Blocks(p.Right.View); blocks != nil {
			if res, ok, err := ex.prunedScan(p, left, blocks); ok || err != nil {
				return res, err
			}
		}
	}
	return ex.run(p.Right)
}

// prunedScan scans the right-side view keeping only blocks overlapping
// [min ancestor ID, max successor-of-ancestor-ID): every descendant of an
// ancestor a lies in [a, succ(a)), so the union of those intervals bounds
// all possible matches.
func (ex *executor) prunedScan(p *core.Plan, left *table, blocks *store.Blocks) (*table, bool, error) {
	rel := blocks.Extent()
	lid := left.rel.ColIndex(view.SlotCol(p.LeftSlot, "id"))
	ci := rel.ColIndex(view.SlotCol(p.RightSlot, "id"))
	if lid < 0 || ci < 0 {
		return nil, false, nil // the join operator reports the error
	}
	var lo, hi nodeid.ID
	haveRange, hiUnbounded := false, false
	for i := 0; i < left.rel.Len(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, true, err
			}
		}
		v := left.rel.At(i, lid)
		if v.IsNull() {
			continue
		}
		s, unb := succID(v.ID)
		if !haveRange {
			haveRange, lo, hi, hiUnbounded = true, v.ID, s, unb
			continue
		}
		if v.ID.Compare(lo) < 0 {
			lo = v.ID
		}
		if unb {
			hiUnbounded = true
		} else if !hiUnbounded && s.Compare(hi) > 0 {
			hi = s
		}
	}
	col := blocks.Column(ci)
	var idx []int
	for bi := 0; bi < blocks.NumBlocks(); bi++ {
		if err := ex.cancelled(); err != nil {
			return nil, true, err
		}
		if !haveRange || !col.Zone(bi).OverlapsRange(lo, hi, hiUnbounded) {
			if ex.opts.Stats != nil {
				ex.opts.Stats.BlocksSkipped++
			}
			continue
		}
		if ex.opts.Stats != nil {
			ex.opts.Stats.BlocksScanned++
		}
		blo, bhi := bi*store.BlockRows, (bi+1)*store.BlockRows
		if bhi > rel.Len() {
			bhi = rel.Len()
		}
		for i := blo; i < bhi; i++ {
			idx = append(idx, i)
		}
	}
	if ex.opts.Stats != nil {
		ex.opts.Stats.VecJoinPrunes++
	}
	out, err := ex.materialize(rel, p.Right.View, len(idx), func(n int) int { return idx[n] })
	if err != nil {
		return nil, true, err
	}
	return &table{rel: out.Extent(), slots: core.Scan(p.Right.View).OutSlots()}, true, nil
}

// succID returns the lexicographic successor bound of id's subtree: id
// with its last component incremented, so subtree(id) ⊆ [id, succ(id)).
// The root (empty ID) and a component at the numeric ceiling have no
// finite bound; unbounded is true for them.
func succID(id nodeid.ID) (s nodeid.ID, unbounded bool) {
	if len(id) == 0 || id[len(id)-1] == ^uint32(0) {
		return nil, true
	}
	s = append(nodeid.ID(nil), id...)
	s[len(s)-1]++
	return s, false
}
