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
	"math/bits"
	"slices"
	"sort"

	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/predicate"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// Result is an executed plan: a flat relation of distinct rows plus
// per-slot schema. Rel is built for the caller, but its tuples may be
// shared with the store's extents: read them, do not write into them.
type Result struct {
	Rel   *nrel.Relation
	Slots []core.PlanSlot
	// Rendering holds Rel's rows rendered once, in Rel's row order: the
	// pass that removed the duplicates, kept for the /query response to be
	// ordered and cut from without rendering a row again.
	Rendering *nrel.Rendering
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
	rel, rd := t.rel.RenderDistinct()
	return &Result{Rel: rel, Slots: t.slots, Rendering: rd}, nil
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
		return ex.buildTable(ex.openJoin(p))
	case core.OpUnion:
		return ex.union(p)
	case core.OpProject:
		return ex.project(p)
	case core.OpSelectLabel, core.OpSelectValue:
		// Selection chains over a plain view scan run vectorized on the
		// view's columnar blocks when the store can serve them.
		if src, ok, err := ex.vectorSelect(p); ok || err != nil {
			return ex.buildTable(src, err)
		}
		return ex.selectRows(p)
	case core.OpUnnest, core.OpGroupBy:
		// Flat execution: nesting is output formatting; tuples unchanged.
		return ex.run(p.Input)
	}
	return nil, fmt.Errorf("algebra: unknown operator %d", p.Op)
}

// rowReader reads an operator's output by row and column, whether or not
// it is built into tuples. nrel.Extent is one.
type rowReader interface {
	Len() int
	At(i, c int) nrel.Value
}

// source is an operator's output before it is built into tuples: a view
// scan (scanRows) or a join (joinedRows) that an operator above reads
// through, building only the columns it keeps, or a built table.
type source struct {
	rows  rowReader
	cols  []string
	slots []core.PlanSlot
}

// open returns plan p's output as a source. Scans, joins and vectorized
// selections come back unbuilt; any other operator runs and is built.
func (ex *executor) open(p *core.Plan) (*source, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	var t *table
	var err error
	switch p.Op {
	case core.OpScan:
		return ex.openScan(p.View)
	case core.OpJoin:
		return ex.openJoin(p)
	case core.OpUnnest, core.OpGroupBy:
		return ex.open(p.Input)
	case core.OpSelectLabel, core.OpSelectValue:
		if src, ok, err := ex.vectorSelect(p); ok || err != nil {
			return src, err
		}
		t, err = ex.selectRows(p)
	default:
		t, err = ex.run(p)
	}
	if err != nil {
		return nil, err
	}
	return &source{rows: t.rel, cols: t.rel.Cols(), slots: t.slots}, nil
}

// scan reads a view: base views from the store, navigation views by
// navigating inside stored content; a view with virtual ID slots then gets
// its ID columns computed from stored IDs (navfID).
func (ex *executor) scan(v *core.View) (*table, error) {
	return ex.buildTable(ex.openScan(v))
}

// openScan returns view v's scan unbuilt: its stored extent, or for a
// navigation view the rows navigated from its base's contents.
func (ex *executor) openScan(v *core.View) (*source, error) {
	if v.Nav == nil {
		return scanSource(ex.st.Relation(v), v, nil)
	}
	nav, err := ex.scanNav(v)
	if err != nil {
		return nil, err
	}
	return scanSource(nav.Extent(), v, nil)
}

// scanSource returns the scan of view v over rel, its stored extent, as
// an unbuilt source: row i is stored row idx[i] (row i when idx is nil),
// and the virtual ID columns are derived as they are read.
func scanSource(rel nrel.Extent, v *core.View, idx []int) (*source, error) {
	sr := &scanRows{rel: rel, idx: idx}
	cols := rel.Cols()
	if len(v.VirtualSlots) > 0 {
		var err error
		if sr.steps, cols, err = virtualSteps(cols, v); err != nil {
			return nil, err
		}
		sr.from = make([]int, len(cols))
		for c := range sr.from {
			sr.from[c] = -1
		}
		for k, st := range sr.steps {
			sr.from[st.dst] = k
		}
	}
	return &source{rows: sr, cols: cols, slots: core.Scan(v).OutSlots()}, nil
}

// scanRows reads a view scan's rows without building them: row i is
// stored row idx[i] (row i when idx is nil), and a column a derivation
// step writes (from[c] is its step, or -1) is derived from its source
// column as it is read — by one truncation of the source ID.
type scanRows struct {
	rel   nrel.Extent
	idx   []int
	steps []idStep
	from  []int
}

func (s *scanRows) Len() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return s.rel.Len()
}

func (s *scanRows) At(i, c int) nrel.Value {
	if s.idx != nil {
		i = s.idx[i]
	}
	return s.at(i, c)
}

func (s *scanRows) at(row, c int) nrel.Value {
	if s.from == nil || s.from[c] < 0 {
		return s.rel.At(row, c)
	}
	st := s.steps[s.from[c]]
	if v := s.at(row, st.src); !v.IsNull() {
		return nrel.ID(v.ID.Ancestor(st.up))
	}
	return nrel.Null()
}

// buildTable builds a source, all its columns, into a table.
func (ex *executor) buildTable(src *source, err error) (*table, error) {
	if err != nil {
		return nil, err
	}
	rel, err := ex.build(src, nil, nil)
	if err != nil {
		return nil, err
	}
	return &table{rel: rel, slots: src.slots}, nil
}

// build builds a source's rows into a relation, in one pass: the columns
// keep lists, in order (nil: all), named cols (nil: the source's names).
// Rows that are stored tuples as they are share them, and a whole stored
// extent under its own header is returned as it is; any other rows are
// cut from one backing array.
func (ex *executor) build(src *source, keep []int, cols []string) (nrel.Extent, error) {
	if keep == nil {
		keep = make([]int, len(src.cols))
		for j := range keep {
			keep[j] = j
		}
	}
	if cols == nil {
		cols = make([]string, len(keep))
		for j, c := range keep {
			cols[j] = src.cols[c]
		}
	}
	n := src.rows.Len()
	out := nrel.NewRelation(cols...)
	if stored, idx, ok := storedTuples(src.rows, keep); ok {
		if idx == nil && slices.Equal(cols, src.cols) {
			return stored, nil
		}
		out.Rows = make([]nrel.Tuple, 0, n)
		for i := 0; i < n; i++ {
			if i%cancelCheckEvery == 0 {
				if err := ex.cancelled(); err != nil {
					return nrel.Extent{}, err
				}
			}
			if idx != nil {
				stored.AppendRow(out, idx[i])
			} else {
				stored.AppendRow(out, i)
			}
		}
		return out.Extent(), nil
	}
	w := len(keep)
	out.Rows = make([]nrel.Tuple, n)
	backing := make([]nrel.Value, n*w)
	for i := range out.Rows {
		if i%cancelCheckEvery == 0 {
			if err := ex.cancelled(); err != nil {
				return nrel.Extent{}, err
			}
		}
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for j, c := range keep {
			row[j] = src.rows.At(i, c)
		}
		out.Rows[i] = row
	}
	return out.Extent(), nil
}

// storedTuples reports whether rows, cut to the columns keep lists, are
// stored tuples as they are: a built extent's, or a scan's when no kept
// column is derived, with every stored column kept in order. It returns
// the extent and the scan's row index (nil: every row in order).
func storedTuples(rows rowReader, keep []int) (nrel.Extent, []int, bool) {
	var stored nrel.Extent
	var idx []int
	switch r := rows.(type) {
	case nrel.Extent:
		stored = r
	case *scanRows:
		for _, c := range keep {
			if r.from != nil && r.from[c] >= 0 {
				return stored, nil, false
			}
		}
		stored, idx = r.rel, r.idx
	default:
		return stored, nil, false
	}
	if len(keep) != stored.Width() {
		return stored, nil, false
	}
	for j, c := range keep {
		if c != j {
			return stored, nil, false
		}
	}
	return stored, idx, true
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
	var key []byte
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
			key = tnode.ID.AppendTo(append(nrel.AppendValue(key[:0], anchorID), '|'))
			if !seen[string(key)] {
				seen[string(key)] = true
				out.Append(nrel.Tuple{anchorID, nrel.ID(tnode.ID), val})
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

// openJoin runs a join's kernel on its inputs, read unbuilt, and returns
// the joined pairs unbuilt: the operator above builds only the columns it
// keeps.
func (ex *executor) openJoin(p *core.Plan) (*source, error) {
	left, err := ex.open(p.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.joinRight(p, left)
	if err != nil {
		return nil, err
	}
	lid := slices.Index(left.cols, view.SlotCol(p.LeftSlot, "id"))
	rid := slices.Index(right.cols, view.SlotCol(p.RightSlot, "id"))
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
		pairs = hashJoin(left.rows, lid, right.rows, rid, stop)
	} else {
		pairs = stackStructuralJoin(left.rows, lid, right.rows, rid, p.Kind == core.JoinParent, stop)
	}
	if p.Outer {
		pairs = padOuter(pairs, left.rows.Len(), stop)
	}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	// The output schema: left slots then right slots, renamed.
	slots := append(append([]core.PlanSlot{}, left.slots...), right.slots...)
	cols := append([]string(nil), left.cols...)
	for _, c := range right.cols {
		cols = append(cols, shiftSlotCol(c, len(left.slots)))
	}
	rows := &joinedRows{left: left.rows, right: right.rows, width: len(left.cols), pairs: pairs}
	return &source{rows: rows, cols: cols, slots: slots}, nil
}

// joinedRows reads a join's output without building it: row i is pair i's
// left row followed by its right row, ⊥ for a padded one.
type joinedRows struct {
	left, right rowReader
	width       int // the left side's
	pairs       []joinedRow
}

func (j *joinedRows) Len() int { return len(j.pairs) }

func (j *joinedRows) At(i, c int) nrel.Value {
	jr := j.pairs[i]
	switch {
	case c < j.width:
		return j.left.At(jr.left, c)
	case jr.right < 0:
		return nrel.Null()
	}
	return j.right.At(jr.right, c-j.width)
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

// hashJoin pairs the rows of l and r whose ID columns are equal, each left
// row with its matches in right-row order.
func hashJoin(l rowReader, lid int, r rowReader, rid int, stop func() bool) []joinedRow {
	// An open-addressing table of the right side's distinct IDs (first row
	// + 1; 0 is empty), at most half full, probed linearly; rows sharing
	// an ID chain through next in row order.
	n := r.Len()
	slots := make([]int32, 1<<bits.Len(uint(2*n)))
	tails := make([]int32, len(slots))
	next := make([]int32, n)
	mask := len(slots) - 1
	find := func(id nodeid.ID) int {
		p := int(hashID(id)) & mask
		for slots[p] != 0 && !r.At(int(slots[p]-1), rid).ID.Equal(id) {
			p = (p + 1) & mask
		}
		return p
	}
	for i := 0; i < n; i++ {
		if shouldStop(stop, i) {
			return nil
		}
		v := r.At(i, rid)
		if v.IsNull() {
			continue
		}
		p := find(v.ID)
		if slots[p] == 0 {
			slots[p] = int32(i) + 1
		} else {
			next[tails[p]-1] = int32(i) + 1
		}
		tails[p] = int32(i) + 1
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
		for j := slots[find(v.ID)]; j != 0; j = next[j-1] {
			out = append(out, joinedRow{left: i, right: int(j - 1)})
		}
	}
	return out
}

// hashID hashes an ID's components (FNV-1a over 32-bit words).
func hashID(id nodeid.ID) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range id {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h ^ h>>32
}

// stackStructuralJoin implements the Stack-Tree-Desc structural join of
// Al-Khalifa et al. [reference 1 of the paper]: both inputs sorted in
// document order, a stack of pending ancestors, each pair emitted exactly
// once. O(|l| + |r| + |output|).
func stackStructuralJoin(l rowReader, lid int, r rowReader, rid int, parentOnly bool, stop func() bool) []joinedRow {
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
func sortedByID(e rowReader, col int, stop func() bool) []int {
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

// project keeps the plan's slots. It builds its input's kept columns
// only: over a scan or a join, no other column is derived or copied.
func (ex *executor) project(p *core.Plan) (*table, error) {
	src, err := ex.open(p.Input)
	if err != nil {
		return nil, err
	}
	keep := []int{} // not nil: nil keeps every column
	var cols []string
	slots := make([]core.PlanSlot, len(p.Keep))
	for newK, oldK := range p.Keep {
		slots[newK] = src.slots[oldK]
		for _, attr := range []string{"id", "l", "v", "c"} {
			if ci := slices.Index(src.cols, view.SlotCol(oldK, attr)); ci >= 0 {
				keep = append(keep, ci)
				cols = append(cols, view.SlotCol(newK, attr))
			}
		}
	}
	rel, err := ex.build(src, keep, cols)
	if err != nil {
		return nil, err
	}
	return &table{rel: rel, slots: slots}, nil
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
