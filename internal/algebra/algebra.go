// Package algebra executes the logical plans produced by the rewriting
// algorithm over materialized views (Section 3.2 operators plus the
// Section 4.6 extensions): view scans, ID joins, stack-based structural
// joins, selections, projections, unions, and the derived-view primitives
// (content navigation, virtual ID computation).
//
// Execution is flat: every plan slot contributes one column block
// (s<k>.id, s<k>.l, s<k>.v, s<k>.c); nesting sequences are carried as
// metadata and applied when rendering the final result.
package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/predicate"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// Result is an executed plan: a flat relation plus per-slot schema.
type Result struct {
	Rel   *nrel.Relation
	Slots []core.PlanSlot
}

// Options tunes execution.
type Options struct {
	// Deprecated: ignored. Joins run on the calling goroutine; the field
	// remains only for source compatibility.
	Workers int
	// Ctx optionally cancels execution: it is checked at every operator
	// boundary and periodically inside scan and join loops (build and
	// probe phases included), so an abandoned request stops burning CPU
	// mid-plan; an in-progress sort still completes before the next
	// poll. A nil context never cancels.
	Ctx context.Context
	// Stats, when non-nil, accumulates vectorized-path counters for this
	// execution (see ExecStats). The executor writes it single-threadedly;
	// callers must not share one ExecStats across concurrent executions.
	Stats *ExecStats
}

// Reader is the read side of a view store — all the executor needs to run
// a plan. Both *view.Store (the live extents, materializing lazily from
// the document) and *view.Snapshot (one pinned epoch) satisfy it. The
// returned relation and block handle share storage with every concurrent
// reader: the executor clones before mutating.
type Reader interface {
	//xvlint:sharedreturn
	Relation(v *core.View) *nrel.Relation
	//xvlint:sharedreturn
	Blocks(v *core.View) *store.Blocks
}

// Execute runs a plan against a store or a snapshot of one.
func Execute(p *core.Plan, st Reader) (*Result, error) {
	return ExecuteWith(p, st, Options{})
}

// ExecuteWith runs a plan with explicit options.
func ExecuteWith(p *core.Plan, st Reader, opts Options) (*Result, error) {
	ex := &executor{st: st, opts: opts}
	res, err := ex.run(p)
	if err != nil {
		return nil, err
	}
	res.Rel = res.Rel.Distinct()
	return res, nil
}

type executor struct {
	st   Reader
	opts Options
}

// cancelCheckEvery bounds how many rows a loop processes between context
// polls.
const cancelCheckEvery = 4096

// cancelled returns the context's error once the caller has gone away.
func (ex *executor) cancelled() error {
	if ex.opts.Ctx == nil {
		return nil
	}
	select {
	case <-ex.opts.Ctx.Done():
		return ex.opts.Ctx.Err()
	default:
		return nil
	}
}

func (ex *executor) run(p *core.Plan) (*Result, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	switch p.Op {
	case core.OpScan:
		return ex.scan(p.View)
	case core.OpJoin:
		return ex.join(p)
	case core.OpUnion:
		return ex.union(p)
	case core.OpProject:
		return ex.project(p)
	case core.OpSelectLabel, core.OpSelectValue:
		// Selection chains over a plain view scan run vectorized on the
		// view's columnar blocks when the store can serve them.
		if res, ok, err := ex.vectorSelect(p); ok || err != nil {
			return res, err
		}
		if p.Op == core.OpSelectLabel {
			return ex.selectLabel(p)
		}
		return ex.selectValue(p)
	case core.OpUnnest, core.OpGroupBy:
		// Flat execution: nesting is output formatting; tuples unchanged.
		return ex.run(p.Input)
	}
	return nil, fmt.Errorf("algebra: unknown operator %d", p.Op)
}

// scan materializes a view: base views from the store, navigation views by
// navigating inside stored content, then virtual ID columns are computed
// from stored IDs (navfID).
func (ex *executor) scan(v *core.View) (*Result, error) {
	var rel *nrel.Relation
	if v.Nav != nil {
		var err error
		rel, err = ex.scanNav(v)
		if err != nil {
			return nil, err
		}
	} else {
		rel = ex.st.Relation(v)
	}
	res := &Result{Rel: rel, Slots: core.Scan(v).OutSlots()}
	if len(v.VirtualSlots) > 0 {
		// The store's extent is shared (and may be served to concurrent
		// executors); derive virtual columns on a private copy. A nav
		// scan's relation is freshly built above and needs no copy.
		if v.Nav == nil {
			cloned, err := ex.cloneForVirtualIDs(rel, len(v.VirtualSlots))
			if err != nil {
				return nil, err
			}
			res.Rel = cloned
		}
		if err := ex.fillVirtualIDs(res, v); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cloneForVirtualIDs copies the relation's header and tuples (values are
// shared) with room for the derived ID columns, so fillVirtualIDs never
// writes into the store's cached extent.
func (ex *executor) cloneForVirtualIDs(rel *nrel.Relation, extra int) (*nrel.Relation, error) {
	out := nrel.NewRelation()
	out.Cols = append(make([]string, 0, len(rel.Cols)+extra), rel.Cols...)
	out.Rows = make([]nrel.Tuple, len(rel.Rows))
	for i, row := range rel.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		out.Rows[i] = append(make(nrel.Tuple, 0, len(row)+extra), row...)
	}
	return out, nil
}

// scanNav evaluates a navigation view: for each base row, navigate the
// relative path inside the stored content and emit (anchor id, target id,
// target value) rows. This is how the C-unfolding of Section 4.6 executes
// without touching the document.
func (ex *executor) scanNav(v *core.View) (*nrel.Relation, error) {
	spec := v.Nav
	base := ex.st.Relation(spec.Base)
	idCol := base.ColIndex(view.SlotCol(spec.BaseSlot, "id"))
	cCol := base.ColIndex(view.SlotCol(spec.BaseSlot, "c"))
	if idCol < 0 || cCol < 0 {
		return nil, fmt.Errorf("algebra: navigation base %s lacks id/c columns", spec.Base.Name)
	}
	// The nav pattern's slots: [anchor(id), target(id,v)].
	k := len(v.Pattern.Returns())
	out := nrel.NewRelation(
		view.SlotCol(k-2, "id"),
		view.SlotCol(k-1, "id"), view.SlotCol(k-1, "v"),
	)
	seen := map[string]bool{}
	for i, row := range base.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		anchorID := row[idCol]
		content := row[cCol]
		if anchorID.IsNull() || content.IsNull() || content.Content == nil {
			continue
		}
		targets := navigate(content.Content.Root, spec.RelPath)
		for _, tnode := range targets {
			val := nrel.Null()
			if tnode.Value != "" {
				val = nrel.String(tnode.Value)
			}
			r := nrel.Tuple{anchorID, nrel.ID(tnode.ID), val}
			key := anchorID.Render() + "|" + tnode.ID.String()
			if !seen[key] {
				seen[key] = true
				out.Append(r)
			}
		}
	}
	return out, nil
}

// navigate returns the nodes reached by following the child-label path
// from root (exclusive).
func navigate(root *xmltree.Node, path []string) []*xmltree.Node {
	frontier := []*xmltree.Node{root}
	for _, label := range path {
		var next []*xmltree.Node
		for _, n := range frontier {
			for _, c := range n.Children {
				if c.Label == label {
					next = append(next, c)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil
		}
	}
	return frontier
}

// fillVirtualIDs computes derived ID columns by parent-ID steps.
func (ex *executor) fillVirtualIDs(res *Result, v *core.View) error {
	// Resolve in dependency order: a virtual slot may derive from another
	// virtual slot; iterate until all are filled. Each round tries the
	// slots in ascending order so inserted columns land at the same
	// positions on every run — the column list is rendered verbatim into
	// the /query response, so it must not inherit map iteration order.
	pending := map[int]core.VirtualID{}
	for k, vid := range v.VirtualSlots {
		pending[k] = vid
	}
	slots := make([]int, 0, len(pending))
	for k := range pending {
		slots = append(slots, k)
	}
	sort.Ints(slots)
	cols := res.Rel.Cols
	colOf := func(k int) int { return res.Rel.ColIndex(view.SlotCol(k, "id")) }
	for len(pending) > 0 {
		progress := false
		for _, k := range slots {
			vid, ok := pending[k]
			if !ok {
				continue
			}
			if _, stillPending := pending[vid.FromSlot]; stillPending {
				continue
			}
			src := colOf(vid.FromSlot)
			if src < 0 {
				return fmt.Errorf("algebra: virtual slot %d derives from slot %d without id column", k, vid.FromSlot)
			}
			dst := colOf(k)
			if dst < 0 {
				// Insert the derived column.
				res.Rel.Cols = append(cols[:0:0], cols...)
				res.Rel.Cols = append(res.Rel.Cols, view.SlotCol(k, "id"))
				for i, row := range res.Rel.Rows {
					if i%cancelCheckEvery == 0 {
						if err := ex.cancelled(); err != nil {
							return err
						}
					}
					res.Rel.Rows[i] = append(row, nrel.Null())
				}
				dst = len(res.Rel.Cols) - 1
				cols = res.Rel.Cols
			}
			for i, row := range res.Rel.Rows {
				if i%cancelCheckEvery == 0 {
					if err := ex.cancelled(); err != nil {
						return err
					}
				}
				id := row[src]
				if id.IsNull() {
					row[dst] = nrel.Null()
					continue
				}
				derived := id.ID
				for up := 0; up < vid.Up; up++ {
					derived = derived.Parent()
				}
				row[dst] = nrel.ID(derived)
			}
			delete(pending, k)
			progress = true
		}
		if !progress {
			return fmt.Errorf("algebra: cyclic virtual ID derivation")
		}
	}
	return nil
}

func (ex *executor) join(p *core.Plan) (*Result, error) {
	left, err := ex.run(p.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.joinRight(p, left)
	if err != nil {
		return nil, err
	}
	lid := left.Rel.ColIndex(view.SlotCol(p.LeftSlot, "id"))
	rid := right.Rel.ColIndex(view.SlotCol(p.RightSlot, "id"))
	if lid < 0 || rid < 0 {
		return nil, fmt.Errorf("algebra: join slots lack id columns (%d,%d)", p.LeftSlot, p.RightSlot)
	}
	// stop lets the kernels bail out of their pair-matching loops when the
	// caller is gone; the cancellation check after the kernel turns the
	// partial output into an error before anything is assembled.
	stop := func() bool { return ex.cancelled() != nil }
	if ex.opts.Ctx == nil {
		stop = nil
	}
	var rows []joinedRow
	if p.Kind == core.JoinID {
		rows = hashJoin(left.Rel, lid, right.Rel, rid, stop)
	} else {
		rows = stackStructuralJoin(left.Rel, lid, right.Rel, rid, p.Kind == core.JoinParent, stop)
	}
	if p.Outer {
		rows = padOuter(rows, left.Rel, len(right.Rel.Cols), stop)
	}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	// Build the output schema: left slots then right slots, renamed.
	slots := append(append([]core.PlanSlot{}, left.Slots...), right.Slots...)
	out := nrel.NewRelation()
	out.Cols = append(out.Cols, left.Rel.Cols...)
	offset := len(left.Slots)
	for _, c := range right.Rel.Cols {
		out.Cols = append(out.Cols, shiftSlotCol(c, offset))
	}
	for i, jr := range rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		row := make(nrel.Tuple, 0, len(jr.left)+len(jr.right))
		row = append(row, jr.left...)
		row = append(row, jr.right...)
		out.Append(row)
	}
	return &Result{Rel: out, Slots: slots}, nil
}

type joinedRow struct {
	left, right nrel.Tuple
}

// padOuter appends, for every left row without a match, a row padded with
// ⊥ on the right (left outer join semantics). Like the join kernels it
// may return partial output when stop fires; the caller's cancellation
// check discards it.
func padOuter(rows []joinedRow, left *nrel.Relation, rightWidth int, stop func() bool) []joinedRow {
	seen := map[string]bool{}
	for i, jr := range rows {
		if shouldStop(stop, i) {
			return rows
		}
		seen[renderKey(jr.left)] = true
	}
	nulls := make(nrel.Tuple, rightWidth)
	for i := range nulls {
		nulls[i] = nrel.Null()
	}
	for i, lrow := range left.Rows {
		if shouldStop(stop, i) {
			return rows
		}
		if !seen[renderKey(lrow)] {
			rows = append(rows, joinedRow{lrow, nulls})
		}
	}
	return rows
}

func renderKey(row nrel.Tuple) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Render())
		b.WriteByte(0)
	}
	return b.String()
}

// shiftSlotCol renames s<k>.<attr> to s<k+offset>.<attr>.
func shiftSlotCol(col string, offset int) string {
	var k int
	var attr string
	if _, err := fmt.Sscanf(col, "s%d.%s", &k, &attr); err != nil {
		return col
	}
	return view.SlotCol(k+offset, attr)
}

// shouldStop polls an optional cancellation probe every few thousand
// outer-loop iterations; kernels return their partial output on true and
// the caller converts that into an error.
func shouldStop(stop func() bool, i int) bool {
	return stop != nil && i%cancelCheckEvery == 0 && stop()
}

func hashJoin(l *nrel.Relation, lid int, r *nrel.Relation, rid int, stop func() bool) []joinedRow {
	index := map[string][]nrel.Tuple{}
	for i, row := range r.Rows {
		if shouldStop(stop, i) {
			return nil
		}
		v := row[rid]
		if v.IsNull() {
			continue
		}
		index[v.ID.String()] = append(index[v.ID.String()], row)
	}
	var out []joinedRow
	for i, lrow := range l.Rows {
		if shouldStop(stop, i) {
			return out
		}
		v := lrow[lid]
		if v.IsNull() {
			continue
		}
		for _, rrow := range index[v.ID.String()] {
			out = append(out, joinedRow{lrow, rrow})
		}
	}
	return out
}

// stackStructuralJoin implements the Stack-Tree-Desc structural join of
// Al-Khalifa et al. [reference 1 of the paper]: both inputs sorted in
// document order, a stack of pending ancestors, each pair emitted exactly
// once. O(|l| + |r| + |output|).
func stackStructuralJoin(l *nrel.Relation, lid int, r *nrel.Relation, rid int, parentOnly bool, stop func() bool) []joinedRow {
	anc := sortedByID(l.Rows, lid, stop)
	// An in-progress sort always completes, but poll between the two so
	// an abandoned request pays for at most one of them.
	if stop != nil && stop() {
		return nil
	}
	desc := sortedByID(r.Rows, rid, stop)
	var out []joinedRow
	polled := 0
	// Stack entries group ancestor rows sharing the same ID (duplicates
	// arise after prior joins); the stack always holds a root-to-leaf
	// ancestor chain.
	type stackEntry struct {
		id   nodeid.ID
		rows []nrel.Tuple
	}
	var stack []stackEntry
	ai := 0
	for di := 0; di < len(desc); {
		polled++
		if shouldStop(stop, polled) {
			return out
		}
		did := desc[di][rid].ID
		if ai < len(anc) && anc[ai][lid].ID.Compare(did) <= 0 {
			// The next ancestor precedes the next descendant: push it.
			aid := anc[ai][lid].ID
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if top.id.Equal(aid) || top.id.IsAncestorOf(aid) {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && stack[len(stack)-1].id.Equal(aid) {
				stack[len(stack)-1].rows = append(stack[len(stack)-1].rows, anc[ai])
			} else {
				stack = append(stack, stackEntry{id: aid, rows: []nrel.Tuple{anc[ai]}})
			}
			ai++
			continue
		}
		// Emit pairs for the descendant against the current chain.
		for len(stack) > 0 && !stack[len(stack)-1].id.IsAncestorOf(did) {
			stack = stack[:len(stack)-1]
		}
		for _, se := range stack {
			if parentOnly && !se.id.IsParentOf(did) {
				continue
			}
			for _, arow := range se.rows {
				out = append(out, joinedRow{arow, desc[di]})
			}
		}
		di++
	}
	return out
}

func sortedByID(rows []nrel.Tuple, col int, stop func() bool) []nrel.Tuple {
	out := make([]nrel.Tuple, 0, len(rows))
	for i, r := range rows {
		if shouldStop(stop, i) {
			return out
		}
		if !r[col].IsNull() {
			out = append(out, r)
		}
	}
	sortTuples(out, col)
	return out
}

// sortTuples orders rows by document order on the given ID column, keeping
// the input order of equal IDs (duplicates arise after prior joins).
func sortTuples(rows []nrel.Tuple, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i][col].ID.Compare(rows[j][col].ID) < 0
	})
}

func (ex *executor) union(p *core.Plan) (*Result, error) {
	var out *Result
	for _, part := range p.Parts {
		r, err := ex.run(part)
		if err != nil {
			return nil, err
		}
		if out == nil {
			// A part's relation may be the store's shared extent (a bare
			// view scan): collect into a fresh relation, never append to it.
			out = &Result{Rel: nrel.NewRelation(r.Rel.Cols...), Slots: r.Slots}
		} else if len(r.Rel.Cols) != len(out.Rel.Cols) {
			return nil, fmt.Errorf("algebra: union schema mismatch")
		}
		out.Rel.Rows = append(out.Rel.Rows, r.Rel.Rows...)
	}
	if out == nil {
		return nil, fmt.Errorf("algebra: empty union")
	}
	return out, nil
}

func (ex *executor) project(p *core.Plan) (*Result, error) {
	in, err := ex.run(p.Input)
	if err != nil {
		return nil, err
	}
	out := nrel.NewRelation()
	var colIdx []int
	slots := make([]core.PlanSlot, len(p.Keep))
	for newK, oldK := range p.Keep {
		slots[newK] = in.Slots[oldK]
		for _, attr := range []string{"id", "l", "v", "c"} {
			if ci := in.Rel.ColIndex(view.SlotCol(oldK, attr)); ci >= 0 {
				colIdx = append(colIdx, ci)
				out.Cols = append(out.Cols, view.SlotCol(newK, attr))
			}
		}
	}
	for i, row := range in.Rel.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		nr := make(nrel.Tuple, len(colIdx))
		for j, ci := range colIdx {
			nr[j] = row[ci]
		}
		out.Append(nr)
	}
	return &Result{Rel: out, Slots: slots}, nil
}

func (ex *executor) selectLabel(p *core.Plan) (*Result, error) {
	in, err := ex.run(p.Input)
	if err != nil {
		return nil, err
	}
	ci := in.Rel.ColIndex(view.SlotCol(p.Slot, "l"))
	if ci < 0 {
		return nil, fmt.Errorf("algebra: σL on slot %d without label column", p.Slot)
	}
	out := nrel.NewRelation(in.Rel.Cols...)
	for i, row := range in.Rel.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		if row[ci].Kind == nrel.KindString && row[ci].Str == p.Label {
			out.Append(row)
		}
	}
	return &Result{Rel: out, Slots: in.Slots}, nil
}

func (ex *executor) selectValue(p *core.Plan) (*Result, error) {
	in, err := ex.run(p.Input)
	if err != nil {
		return nil, err
	}
	ci := in.Rel.ColIndex(view.SlotCol(p.Slot, "v"))
	if ci < 0 {
		return nil, fmt.Errorf("algebra: σV on slot %d without value column", p.Slot)
	}
	out := nrel.NewRelation(in.Rel.Cols...)
	for i, row := range in.Rel.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		if row[ci].Kind == nrel.KindString && p.Pred.Eval(predicate.ParseAtom(row[ci].Str)) {
			out.Append(row)
		}
	}
	return &Result{Rel: out, Slots: in.Slots}, nil
}
