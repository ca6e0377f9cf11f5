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

	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/predicate"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// Result is an executed plan: a flat relation plus per-slot schema. Rel is
// built for the caller, but its tuples may be shared with the store's
// extents: read them, do not write into them.
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
// the document) and *view.Snapshot (one pinned epoch) satisfy it. Both
// methods return read-only handles on storage every concurrent reader
// shares, so no operator can write into an extent: each builds its output
// relation fresh.
type Reader interface {
	Relation(v *core.View) nrel.Extent
	Blocks(v *core.View) *store.Blocks
}

// Execute runs a plan against a store or a snapshot of one.
func Execute(p *core.Plan, st Reader) (*Result, error) {
	return ExecuteWith(p, st, Options{})
}

// ExecuteWith runs a plan with explicit options.
func ExecuteWith(p *core.Plan, st Reader, opts Options) (*Result, error) {
	ex := &executor{st: st, opts: opts}
	t, err := ex.run(p)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: t.rel.Distinct(), Slots: t.slots}, nil
}

type executor struct {
	st   Reader
	opts Options
}

// table is one operator's output: a read-only handle, on a store extent
// or on a relation an operator built, plus the per-slot schema.
type table struct {
	rel   nrel.Extent
	slots []core.PlanSlot
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

func (ex *executor) run(p *core.Plan) (*table, error) {
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
		return ex.selectRows(p)
	case core.OpUnnest, core.OpGroupBy:
		// Flat execution: nesting is output formatting; tuples unchanged.
		return ex.run(p.Input)
	}
	return nil, fmt.Errorf("algebra: unknown operator %d", p.Op)
}

// scan reads a view: base views from the store, navigation views by
// navigating inside stored content; a view with virtual ID slots then gets
// its ID columns computed from stored IDs (navfID).
func (ex *executor) scan(v *core.View) (*table, error) {
	var rel nrel.Extent
	if v.Nav != nil {
		nav, err := ex.scanNav(v)
		if err != nil {
			return nil, err
		}
		rel = nav.Extent()
	} else {
		rel = ex.st.Relation(v)
	}
	if len(v.VirtualSlots) > 0 {
		derived, err := ex.materialize(rel, v, rel.Len(), func(k int) int { return k })
		if err != nil {
			return nil, err
		}
		rel = derived.Extent()
	}
	return &table{rel: rel, slots: core.Scan(v).OutSlots()}, nil
}

// materialize builds the scan rows of view v from n rows of its stored
// extent, the k-th being row at(k), in one pass. A plain view's rows share
// the extent's tuples. A view with virtual ID slots gets each row built
// once: its stored values, then the derived IDs computed from them.
func (ex *executor) materialize(rel nrel.Extent, v *core.View, n int, at func(int) int) (*nrel.Relation, error) {
	cols := rel.Cols()
	var steps []idStep
	if len(v.VirtualSlots) > 0 {
		var err error
		if steps, cols, err = virtualSteps(cols, v); err != nil {
			return nil, err
		}
	}
	out := nrel.NewRelation(cols...)
	out.Rows = make([]nrel.Tuple, 0, n)
	for k := 0; k < n; k++ {
		if k%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		if steps == nil {
			rel.AppendRow(out, at(k))
			continue
		}
		// Columns past the stored ones start as ⊥, the zero Value.
		row := rel.AppendValues(make(nrel.Tuple, 0, len(cols)), at(k))[:len(cols)]
		for _, s := range steps {
			derived := nrel.Null()
			if id := row[s.src]; !id.IsNull() {
				anc := id.ID
				for up := 0; up < s.up; up++ {
					anc = anc.Parent()
				}
				derived = nrel.ID(anc)
			}
			row[s.dst] = derived
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// idStep derives column dst from column src by up parent steps.
type idStep struct{ src, dst, up int }

// virtualSteps resolves v's virtual ID slots against the stored columns:
// it returns the derivation steps in dependency order (a virtual slot may
// derive from another) and the output header, which appends each derived
// column the stored ones lack. Each round tries the pending slots in
// ascending order so inserted columns land at the same positions on every
// run — the header is rendered verbatim into the /query response, so it
// must not inherit map iteration order.
func virtualSteps(cols []string, v *core.View) ([]idStep, []string, error) {
	slots := make([]int, 0, len(v.VirtualSlots))
	for k := range v.VirtualSlots {
		slots = append(slots, k)
	}
	sort.Ints(slots)
	done := make(map[int]bool, len(slots))
	pending := func(k int) bool {
		_, virtual := v.VirtualSlots[k]
		return virtual && !done[k]
	}
	colOf := func(k int) int {
		name := view.SlotCol(k, "id")
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		return -1
	}
	var steps []idStep
	for len(done) < len(slots) {
		progress := false
		for _, k := range slots {
			vid := v.VirtualSlots[k]
			if done[k] || pending(vid.FromSlot) {
				continue
			}
			src := colOf(vid.FromSlot)
			if src < 0 {
				return nil, nil, fmt.Errorf("algebra: virtual slot %d derives from slot %d without id column", k, vid.FromSlot)
			}
			dst := colOf(k)
			if dst < 0 {
				cols = append(cols, view.SlotCol(k, "id"))
				dst = len(cols) - 1
			}
			steps = append(steps, idStep{src: src, dst: dst, up: vid.Up})
			done[k] = true
			progress = true
		}
		if !progress {
			return nil, nil, fmt.Errorf("algebra: cyclic virtual ID derivation")
		}
	}
	return steps, cols, nil
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
	for i := 0; i < base.Len(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		anchorID, content := base.At(i, idCol), base.At(i, cCol)
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

func (ex *executor) join(p *core.Plan) (*table, error) {
	left, err := ex.run(p.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.joinRight(p, left)
	if err != nil {
		return nil, err
	}
	lid := left.rel.ColIndex(view.SlotCol(p.LeftSlot, "id"))
	rid := right.rel.ColIndex(view.SlotCol(p.RightSlot, "id"))
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
	var pairs []joinedRow
	if p.Kind == core.JoinID {
		pairs = hashJoin(left.rel, lid, right.rel, rid, stop)
	} else {
		pairs = stackStructuralJoin(left.rel, lid, right.rel, rid, p.Kind == core.JoinParent, stop)
	}
	if p.Outer {
		pairs = padOuter(pairs, left.rel.Len(), stop)
	}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	// Build the output schema: left slots then right slots, renamed.
	slots := append(append([]core.PlanSlot{}, left.slots...), right.slots...)
	cols := left.rel.Cols()
	offset := len(left.slots)
	for _, c := range right.rel.Cols() {
		cols = append(cols, shiftSlotCol(c, offset))
	}
	out := nrel.NewRelation(cols...)
	out.Rows = make([]nrel.Tuple, 0, len(pairs))
	for i, jr := range pairs {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		row := left.rel.AppendValues(make(nrel.Tuple, 0, len(cols)), jr.left)
		if jr.right < 0 {
			row = row[:len(cols)] // padded with ⊥, the zero Value
		} else {
			row = right.rel.AppendValues(row, jr.right)
		}
		out.Rows = append(out.Rows, row)
	}
	return &table{rel: out.Extent(), slots: slots}, nil
}

// joinedRow pairs a left row index with a right one; right is -1 for a
// left row an outer join pads with ⊥.
type joinedRow struct {
	left, right int
}

// padOuter appends, for every left row without a match, a pair padded
// with ⊥ on the right (left outer join semantics). Like the join kernels
// it may return partial output when stop fires; the caller's cancellation
// check discards it.
func padOuter(pairs []joinedRow, leftLen int, stop func() bool) []joinedRow {
	matched := make([]bool, leftLen)
	for i, jr := range pairs {
		if shouldStop(stop, i) {
			return pairs
		}
		matched[jr.left] = true
	}
	for i, ok := range matched {
		if shouldStop(stop, i) {
			return pairs
		}
		if !ok {
			pairs = append(pairs, joinedRow{left: i, right: -1})
		}
	}
	return pairs
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

func hashJoin(l nrel.Extent, lid int, r nrel.Extent, rid int, stop func() bool) []joinedRow {
	index := map[string][]int{}
	for i := 0; i < r.Len(); i++ {
		if shouldStop(stop, i) {
			return nil
		}
		if v := r.At(i, rid); !v.IsNull() {
			key := v.ID.String()
			index[key] = append(index[key], i)
		}
	}
	var out []joinedRow
	for i := 0; i < l.Len(); i++ {
		if shouldStop(stop, i) {
			return out
		}
		v := l.At(i, lid)
		if v.IsNull() {
			continue
		}
		for _, j := range index[v.ID.String()] {
			out = append(out, joinedRow{left: i, right: j})
		}
	}
	return out
}

// stackStructuralJoin implements the Stack-Tree-Desc structural join of
// Al-Khalifa et al. [reference 1 of the paper]: both inputs sorted in
// document order, a stack of pending ancestors, each pair emitted exactly
// once. O(|l| + |r| + |output|).
func stackStructuralJoin(l nrel.Extent, lid int, r nrel.Extent, rid int, parentOnly bool, stop func() bool) []joinedRow {
	anc := sortedByID(l, lid, stop)
	// An in-progress sort always completes, but poll between the two so
	// an abandoned request pays for at most one of them.
	if stop != nil && stop() {
		return nil
	}
	desc := sortedByID(r, rid, stop)
	var out []joinedRow
	polled := 0
	// Stack entries group ancestor rows sharing the same ID (duplicates
	// arise after prior joins); the stack always holds a root-to-leaf
	// ancestor chain.
	type stackEntry struct {
		id   nodeid.ID
		rows []int
	}
	var stack []stackEntry
	ai := 0
	for di := 0; di < len(desc); {
		polled++
		if shouldStop(stop, polled) {
			return out
		}
		did := r.At(desc[di], rid).ID
		if ai < len(anc) && l.At(anc[ai], lid).ID.Compare(did) <= 0 {
			// The next ancestor precedes the next descendant: push it.
			aid := l.At(anc[ai], lid).ID
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
				stack = append(stack, stackEntry{id: aid, rows: []int{anc[ai]}})
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
				out = append(out, joinedRow{left: arow, right: desc[di]})
			}
		}
		di++
	}
	return out
}

// sortedByID returns the indexes of the rows with a non-null ID in col, in
// document order on it, keeping the input order of equal IDs (duplicates
// arise after prior joins).
func sortedByID(e nrel.Extent, col int, stop func() bool) []int {
	out := make([]int, 0, e.Len())
	for i := 0; i < e.Len(); i++ {
		if shouldStop(stop, i) {
			return out
		}
		if !e.At(i, col).IsNull() {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return e.At(out[i], col).ID.Compare(e.At(out[j], col).ID) < 0
	})
	return out
}

func (ex *executor) union(p *core.Plan) (*table, error) {
	var out *nrel.Relation
	var slots []core.PlanSlot
	for _, part := range p.Parts {
		t, err := ex.run(part)
		if err != nil {
			return nil, err
		}
		if cols := t.rel.Cols(); out == nil {
			out, slots = nrel.NewRelation(cols...), t.slots
		} else if len(cols) != len(out.Cols) {
			return nil, fmt.Errorf("algebra: union schema mismatch")
		}
		for i := 0; i < t.rel.Len(); i++ {
			if i%cancelCheckEvery == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, err
				}
			}
			t.rel.AppendRow(out, i)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("algebra: empty union")
	}
	return &table{rel: out.Extent(), slots: slots}, nil
}

func (ex *executor) project(p *core.Plan) (*table, error) {
	in, err := ex.run(p.Input)
	if err != nil {
		return nil, err
	}
	out := nrel.NewRelation()
	var colIdx []int
	slots := make([]core.PlanSlot, len(p.Keep))
	for newK, oldK := range p.Keep {
		slots[newK] = in.slots[oldK]
		for _, attr := range []string{"id", "l", "v", "c"} {
			if ci := in.rel.ColIndex(view.SlotCol(oldK, attr)); ci >= 0 {
				colIdx = append(colIdx, ci)
				out.Cols = append(out.Cols, view.SlotCol(newK, attr))
			}
		}
	}
	for i := 0; i < in.rel.Len(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		nr := make(nrel.Tuple, len(colIdx))
		for j, ci := range colIdx {
			nr[j] = in.rel.At(i, ci)
		}
		out.Append(nr)
	}
	return &table{rel: out.Extent(), slots: slots}, nil
}

// selectRows runs σL (label equality) or σV (a value predicate)
// row-at-a-time, keeping the input rows whose slot attribute is a string
// that passes.
func (ex *executor) selectRows(p *core.Plan) (*table, error) {
	in, err := ex.run(p.Input)
	if err != nil {
		return nil, err
	}
	op, attr, what := "σL", "l", "label"
	pass := func(s string) bool { return s == p.Label }
	if p.Op == core.OpSelectValue {
		op, attr, what = "σV", "v", "value"
		pass = func(s string) bool { return p.Pred.Eval(predicate.ParseAtom(s)) }
	}
	ci := in.rel.ColIndex(view.SlotCol(p.Slot, attr))
	if ci < 0 {
		return nil, fmt.Errorf("algebra: %s on slot %d without %s column", op, p.Slot, what)
	}
	out := nrel.NewRelation(in.rel.Cols()...)
	for i := 0; i < in.rel.Len(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		if v := in.rel.At(i, ci); v.Kind == nrel.KindString && pass(v.Str) {
			in.rel.AppendRow(out, i)
		}
	}
	return &table{rel: out.Extent(), slots: in.slots}, nil
}
