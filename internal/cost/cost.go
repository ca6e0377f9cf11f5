// Package cost implements the statistics-backed cost model that picks
// which of the rewritings found by core.Rewrite actually executes.
//
// The model estimates, bottom-up over a logical plan, an output
// cardinality and a total work figure per operator:
//
//   - scans are priced at their extent size — actual row/byte counts from
//     the store catalog when available, otherwise estimated from the
//     summary's per-node cardinalities;
//   - join output sizes come from the summary chain cardinalities: an ID
//     join on a summary node keeps |L|·|R|/count(node) pairs, parent and
//     ancestor joins follow the parent-edge fanout (each descendant row has
//     exactly one ancestor on a given summary path); nested variants pay a
//     grouping penalty;
//   - label selections keep the fraction of the slot's weight whose
//     summary nodes carry the label, value selections apply a default
//     selectivity (no value histograms are kept);
//   - unions are additive.
//
// Summaries without statistics (hand-built, or catalogs written before
// statistics existed) degrade to uniform estimates: every summary node
// counts as one document node, so plans are ranked by shape only.
package cost

import (
	"fmt"
	"math"
	"sort"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
)

// Stats bundles what the model needs: the summary (whose nodes may carry
// cardinality statistics) and per-view extent sizes from a store catalog.
type Stats struct {
	Sum *summary.Summary
	// Rows and Bytes are per-view extent sizes keyed by view name; views
	// absent from the maps are estimated from the summary.
	Rows  map[string]int
	Bytes map[string]int64
}

// FromSummary builds statistics from a summary alone (no catalog): scan
// sizes are estimated from the summary cardinalities.
func FromSummary(s *summary.Summary) *Stats {
	return &Stats{Sum: s, Rows: map[string]int{}, Bytes: map[string]int64{}}
}

// FromCatalog builds statistics from a store catalog and its parsed
// summary: scans of cataloged views are priced at their actual row counts
// and the byte volume of their base segment.
func FromCatalog(cat *store.Catalog, s *summary.Summary) *Stats {
	st := FromSummary(s)
	for _, e := range cat.Views {
		st.Rows[e.Name] = e.Rows
		st.Bytes[e.Name] = e.Bytes
	}
	return st
}

// Cost is the estimate for one plan.
type Cost struct {
	// Total is the estimated work in row-visit units; lower is cheaper.
	Total float64
	// Rows is the estimated output cardinality.
	Rows float64
}

// Model constants. The absolute scale is irrelevant (costs only rank
// plans); the ratios encode that nested joins pay a grouping pass, outer
// joins an extra probe, and that byte volume matters for scans.
const (
	// bytesPerUnit converts scanned bytes into row-visit units.
	bytesPerUnit = 256
	// nestedPenalty multiplies a nested join variant's own cost.
	nestedPenalty = 2.0
	// valueSelectivity is the default selectivity of a value predicate
	// (no value histograms are kept).
	valueSelectivity = 0.25
)

// vectorizableScan reports whether the executor serves selections above
// this plan from the view's columnar block handle — any stored view scan,
// plain or prepared; only navigation views build their rows on the fly
// and stay row-at-a-time. This is the shape algebra's vectorSelect accepts.
func vectorizableScan(p *core.Plan) bool {
	return p.Op == core.OpScan && p.View != nil && p.View.Nav == nil
}

// blockPassFraction estimates the fraction of input rows a vectorized
// selection actually visits when zone maps skip non-matching blocks.
// Extents are document-ordered, so rows matching one summary path cluster:
// the matching rows span about s·nblocks blocks plus one straddler, giving
// a visited fraction of s + BlockRows/rows (capped at one). See
// docs/cost.md for the derivation.
func blockPassFraction(s, rows float64) float64 {
	if rows <= 0 {
		return 1
	}
	f := s + float64(store.BlockRows)/rows
	if f > 1 {
		return 1
	}
	return f
}

// Estimator estimates plan costs against one Stats snapshot. It is
// read-only after construction and safe for concurrent use.
type Estimator struct {
	st *Stats
}

// NewEstimator returns an estimator over the statistics.
func NewEstimator(st *Stats) *Estimator { return &Estimator{st: st} }

// Estimate returns the cost of a plan.
func (e *Estimator) Estimate(p *core.Plan) (Cost, error) {
	est, err := e.node(p, map[*core.Plan]*nodeEst{})
	if err != nil {
		return Cost{}, err
	}
	return Cost{Total: est.cost, Rows: est.rows}, nil
}

// PlanCost adapts Estimate to core.ChooseBest's cost-function signature.
func (e *Estimator) PlanCost(p *core.Plan) (float64, error) {
	c, err := e.Estimate(p)
	if err != nil {
		return 0, err
	}
	return c.Total, nil
}

// nodeEst is the per-operator estimate: cost, output rows, and per output
// slot the distribution of summary nodes its bindings come from.
type nodeEst struct {
	cost  float64
	rows  float64
	slots []slotDist
}

// slotDist maps summary node id to the expected fraction of output rows
// whose slot binds a document node on that path; fractions sum to at most
// one, and the missing mass is the ⊥ share (outer-join padding scales
// distributions down accordingly).
type slotDist map[int]float64

// ids returns the distribution's summary node ids in sorted order, so
// float accumulations are order-stable across runs (Go randomizes map
// iteration; ChooseBest's tie-break depends on exact cost equality).
func (d slotDist) ids() []int {
	out := make([]int, 0, len(d))
	for sid := range d {
		out = append(out, sid)
	}
	sort.Ints(out)
	return out
}

// subtreeTextBytes estimates the text volume of one stored content
// subtree on the given summary path: the total text under the path's
// nodes divided by their count.
func (e *Estimator) subtreeTextBytes(sid int) float64 {
	s := e.st.Sum
	total := s.Node(sid).TextBytes
	s.WalkDescendants(sid, func(d int) { total += s.Node(d).TextBytes })
	c := s.Node(sid).Count
	if c <= 0 || total <= 0 {
		return 0
	}
	return float64(total) / float64(c)
}

// count returns the document-node count of a summary node, with the
// uniform fallback of one for summaries without statistics.
func (e *Estimator) count(sid int) float64 {
	c := e.st.Sum.Node(sid).Count
	if c <= 0 {
		return 1
	}
	return float64(c)
}

func (e *Estimator) node(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	if est, ok := memo[p]; ok {
		return est, nil
	}
	var est *nodeEst
	var err error
	switch p.Op {
	case core.OpScan:
		est, err = e.scan(p.View)
	case core.OpJoin:
		est, err = e.join(p, memo)
	case core.OpUnion:
		est, err = e.union(p, memo)
	case core.OpProject:
		est, err = e.project(p, memo)
	case core.OpSelectLabel:
		est, err = e.selectLabel(p, memo)
	case core.OpSelectValue:
		est, err = e.selectValue(p, memo)
	case core.OpUnnest, core.OpGroupBy:
		// Flat execution passes tuples through; group-by pays one pass
		// over its input for the grouping sort.
		in, ierr := e.node(p.Input, memo)
		if ierr != nil {
			err = ierr
			break
		}
		est = &nodeEst{cost: in.cost, rows: in.rows, slots: in.slots}
		if p.Op == core.OpGroupBy {
			est.cost += in.rows
		}
	default:
		err = fmt.Errorf("cost: unknown operator %d", p.Op)
	}
	if err != nil {
		return nil, err
	}
	memo[p] = est
	return est, nil
}

// scan prices a view scan and derives its slot distributions from the
// summary nodes each return node can bind (pattern.AssociatedPaths).
func (e *Estimator) scan(v *core.View) (*nodeEst, error) {
	paths := pattern.AssociatedPaths(v.Pattern, e.st.Sum)
	returns := v.Pattern.Returns()
	est := &nodeEst{slots: make([]slotDist, len(returns))}

	// Output rows: the catalog's actual count when the extent is stored;
	// otherwise the largest per-slot cardinality over the summary (a flat
	// extent has one row per binding of its most numerous slot).
	rows, cataloged := 0.0, false
	if v.Nav == nil {
		if n, ok := e.st.Rows[v.Name]; ok {
			rows, cataloged = float64(n), true
		}
	}
	for j, rn := range returns {
		total := 0.0
		for _, sid := range paths[rn.Index] {
			total += e.count(sid)
		}
		if total <= 0 {
			// The slot cannot bind under the summary; the extent is empty.
			est.slots[j] = slotDist{}
			continue
		}
		d := make(slotDist, len(paths[rn.Index]))
		for _, sid := range paths[rn.Index] {
			d[sid] = e.count(sid) / total
		}
		est.slots[j] = d
		if !cataloged && total > rows {
			rows = total
		}
	}
	est.rows = rows
	est.cost = rows
	if b, ok := e.st.Bytes[v.Name]; ok && v.Nav == nil {
		est.cost += float64(b) / bytesPerUnit
	} else {
		// No catalog byte count: estimate the extent's data volume from
		// the summary's text statistics, so a content-bearing view is
		// never priced like a slim one just because the store is offline
		// (zero without statistics — the uniform fallback ranks by shape).
		bytesEst := 0.0
		for j, rn := range returns {
			for _, sid := range est.slots[j].ids() {
				perRow := 0.0
				if rn.Attrs.Has(pattern.AttrValue) {
					perRow += e.st.Sum.AvgTextBytes(sid)
				}
				if rn.Attrs.Has(pattern.AttrContent) {
					perRow += e.subtreeTextBytes(sid)
				}
				bytesEst += rows * est.slots[j][sid] * perRow
			}
		}
		est.cost += bytesEst / bytesPerUnit
	}
	// A navigation view pays for reading every base row's content subtree
	// on top of emitting its own rows.
	if v.Nav != nil {
		base, err := e.scan(v.Nav.Base)
		if err != nil {
			return nil, err
		}
		est.cost += base.cost
	}
	return est, nil
}

func (e *Estimator) join(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	l, err := e.node(p.Left, memo)
	if err != nil {
		return nil, err
	}
	r, err := e.node(p.Right, memo)
	if err != nil {
		return nil, err
	}
	if p.LeftSlot >= len(l.slots) || p.RightSlot >= len(r.slots) {
		return nil, fmt.Errorf("cost: join slot out of range (%d,%d)", p.LeftSlot, p.RightSlot)
	}
	A, B := l.slots[p.LeftSlot], r.slots[p.RightSlot]

	// Output estimate from the summary chain cardinalities. Every matched
	// pair is attributed to the ancestor-side summary node: an ID join
	// keeps |L_x|·|R_x|/count(x) pairs per shared node x; a parent join
	// matches each right row's unique parent against the left rows on that
	// parent's path; an ancestor join sums that over the whole chain.
	out := 0.0
	s := e.st.Sum
	switch p.Kind {
	case core.JoinID:
		for _, sid := range A.ids() {
			if wr, ok := B[sid]; ok {
				out += (l.rows * A[sid]) * (r.rows * wr) / e.count(sid)
			}
		}
	case core.JoinParent:
		for _, sid := range B.ids() {
			parent := s.Node(sid).Parent
			if parent < 0 {
				continue
			}
			if wl, ok := A[parent]; ok {
				out += (r.rows * B[sid]) * (l.rows * wl) / e.count(parent)
			}
		}
	case core.JoinAncestor:
		for _, sid := range B.ids() {
			for _, anc := range A.ids() {
				if s.IsAncestor(anc, sid) {
					out += (r.rows * B[sid]) * (l.rows * A[anc]) / e.count(anc)
				}
			}
		}
	}

	joinCost := l.rows + r.rows + out
	if p.Nested {
		joinCost *= nestedPenalty
	}
	rslots := r.slots
	if p.Outer {
		// Left rows without a match survive padded with ⊥ on the right.
		matched := out
		if out < l.rows {
			out = l.rows
		}
		joinCost += l.rows
		// The padded share binds ⊥: scale the right side's distributions
		// down to the matched fraction, so a selection above the outer
		// join prices the ⊥ rows it will drop.
		if out > 0 && matched < out {
			share := matched / out
			rslots = make([]slotDist, len(r.slots))
			for j, d := range r.slots {
				nd := make(slotDist, len(d))
				for sid, f := range d {
					nd[sid] = f * share
				}
				rslots[j] = nd
			}
		}
	}
	est := &nodeEst{
		cost:  l.cost + r.cost + joinCost,
		rows:  out,
		slots: append(append([]slotDist{}, l.slots...), rslots...),
	}
	return est, nil
}

func (e *Estimator) union(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	est := &nodeEst{}
	var parts []*nodeEst
	for _, part := range p.Parts {
		pe, err := e.node(part, memo)
		if err != nil {
			return nil, err
		}
		est.cost += pe.cost
		est.rows += pe.rows
		parts = append(parts, pe)
	}
	// Merge the branches' slot distributions weighted by their row
	// shares, so a selection above the union sees the union's actual mix
	// of summary nodes, not just the first branch's.
	if len(parts) > 0 {
		est.slots = make([]slotDist, len(parts[0].slots))
		for j := range est.slots {
			d := slotDist{}
			for _, pe := range parts {
				if j >= len(pe.slots) || est.rows <= 0 {
					continue
				}
				share := pe.rows / est.rows
				for sid, f := range pe.slots[j] {
					d[sid] += f * share
				}
			}
			est.slots[j] = d
		}
	}
	return est, nil
}

func (e *Estimator) project(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	in, err := e.node(p.Input, memo)
	if err != nil {
		return nil, err
	}
	slots := make([]slotDist, len(p.Keep))
	for i, k := range p.Keep {
		if k >= len(in.slots) {
			return nil, fmt.Errorf("cost: projection slot %d out of range", k)
		}
		slots[i] = in.slots[k]
	}
	return &nodeEst{cost: in.cost, rows: in.rows, slots: slots}, nil
}

func (e *Estimator) selectLabel(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	in, err := e.node(p.Input, memo)
	if err != nil {
		return nil, err
	}
	if p.Slot >= len(in.slots) {
		return nil, fmt.Errorf("cost: selection slot %d out of range", p.Slot)
	}
	// Weights are absolute row fractions (⊥ bindings carry no weight), so
	// the matching sids' summed weight IS the selectivity: rows whose
	// slot binds ⊥ or another label are dropped by the executor.
	d := in.slots[p.Slot]
	kept := 0.0
	nd := slotDist{}
	for _, sid := range d.ids() {
		if e.st.Sum.Node(sid).Label == p.Label {
			kept += d[sid]
			nd[sid] = d[sid]
		}
	}
	if kept > 1 {
		kept = 1
	}
	if kept > 0 {
		// Every surviving row binds a kept sid: renormalize to one.
		for sid := range nd {
			nd[sid] /= kept
		}
	}
	slots := append([]slotDist{}, in.slots...)
	slots[p.Slot] = nd
	// A selection directly above a vectorizable scan runs on dictionary
	// codes with zone-map block skipping: it only visits rows in blocks the
	// zones cannot rule out.
	passCost := in.rows
	if vectorizableScan(p.Input) {
		passCost = in.rows * blockPassFraction(kept, in.rows)
	}
	return &nodeEst{cost: in.cost + passCost, rows: in.rows * kept, slots: slots}, nil
}

func (e *Estimator) selectValue(p *core.Plan, memo map[*core.Plan]*nodeEst) (*nodeEst, error) {
	in, err := e.node(p.Input, memo)
	if err != nil {
		return nil, err
	}
	passCost := in.rows
	if vectorizableScan(p.Input) {
		passCost = in.rows * blockPassFraction(valueSelectivity, in.rows)
	}
	return &nodeEst{cost: in.cost + passCost, rows: in.rows * valueSelectivity, slots: in.slots}, nil
}

// String renders a cost compactly for tooling output.
func (c Cost) String() string {
	return fmt.Sprintf("cost=%.1f rows≈%.1f", c.Total, math.Round(c.Rows*10)/10)
}
