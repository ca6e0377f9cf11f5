package core

import (
	"fmt"
	"strconv"
	"strings"

	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
)

// View is a materialized view definition: a tree pattern plus properties of
// the identifiers it stores (Section 4.6).
type View struct {
	// Name identifies the view in plans and in the storage layer.
	Name string
	// Pattern is the view definition.
	Pattern *pattern.Pattern
	// DerivableParentIDs reports that the ID scheme stored in the view
	// supports deriving an ancestor's ID from a node's ID (true for
	// ORDPATH / Dewey), enabling virtual ID attributes.
	DerivableParentIDs bool

	// Nav marks a derived navigation view: it exposes data reachable by
	// navigating inside the C (content) attribute of a base view's slot,
	// the executable form of the C-unfolding of Section 4.6. Nav views are
	// generated by the rewriter; their Pattern describes the data they
	// deliver so that containment reasoning treats them like any view.
	Nav *NavSpec
	// VirtualSlots maps slot indexes to the derivation below: the slot's
	// ID is not stored but computed by successive parent-ID steps from
	// another slot (navfID, Section 4.6).
	VirtualSlots map[int]VirtualID
	// Stored, when non-nil, is the view definition as actually stored;
	// Pattern then additionally carries reasoning-only attributes (the
	// virtual IDs). StoredSlotMap maps Stored's slot indexes to Pattern's.
	Stored        *pattern.Pattern
	StoredSlotMap []int
}

// NavSpec describes a navigation view.
type NavSpec struct {
	Base *View
	// BaseSlot is the slot of Base holding the C attribute (and the ID)
	// of the anchor node.
	BaseSlot int
	// RelPath is the label path from the anchor node (exclusive) to the
	// target node (inclusive).
	RelPath []string
}

// VirtualID describes a virtual ID attribute.
type VirtualID struct {
	// FromSlot is the slot whose stored ID the virtual ID derives from.
	FromSlot int
	// Up is the number of parent-ID steps.
	Up int
}

// OpKind enumerates logical plan operators (Section 3.2 and 4.6).
type OpKind int

const (
	// OpScan reads a materialized view.
	OpScan OpKind = iota
	// OpJoin combines two plans with ⋈=, ⋈≺ or ⋈≺≺, optionally nested.
	OpJoin
	// OpUnion unions same-schema plans.
	OpUnion
	// OpProject keeps a subset of slots.
	OpProject
	// OpSelectLabel filters a slot on its label (σ L=l, Section 4.6).
	OpSelectLabel
	// OpSelectValue filters a slot on a value formula (σ φ, Section 4.6).
	OpSelectValue
	// OpUnnest removes the innermost nesting step of the given slots.
	OpUnnest
	// OpGroupBy adds a nesting step, grouping the given slots under the
	// node identified by another slot's ID.
	OpGroupBy
)

// JoinKind enumerates the join predicates of Section 3.2.
type JoinKind int

const (
	// JoinID pairs tuples containing exactly the same node (⋈=, by ID).
	JoinID JoinKind = iota
	// JoinParent pairs left nodes that are parents of right nodes (⋈≺).
	JoinParent
	// JoinAncestor pairs left nodes that are ancestors of right nodes (⋈≺≺).
	JoinAncestor
)

func (k JoinKind) String() string {
	switch k {
	case JoinID:
		return "⋈="
	case JoinParent:
		return "⋈≺"
	default:
		return "⋈≺≺"
	}
}

// PlanSlot describes one output slot of a plan.
type PlanSlot struct {
	Attrs pattern.Attrs
	// Virtual is set when the slot's ID is derived (navfID).
	Virtual bool
}

// Plan is a logical algebraic plan over views.
type Plan struct {
	Op OpKind

	// OpScan
	View *View

	// OpJoin
	Kind   JoinKind
	Nested bool
	// Outer keeps left tuples without a right match, padding the right
	// slots with ⊥; it is what lets plans reproduce a query's optional
	// edges from views that do not store the optional part.
	Outer               bool
	LeftSlot, RightSlot int
	Left, Right         *Plan

	// OpUnion
	Parts []*Plan

	// OpProject
	Keep []int

	// Selections / nest adjustment target slot.
	Slot  int
	Label string
	Pred  predicate.Formula

	// OpUnnest / OpGroupBy
	Slots  []int
	BySID  int // OpGroupBy: summary id of the grouping nesting step
	BySlot int // OpGroupBy: slot whose ID identifies the grouping ancestor

	// Input for unary operators (project/select/unnest/groupby).
	Input *Plan

	slots []PlanSlot // cached output schema
}

// Scan returns a scan plan over a view.
func Scan(v *View) *Plan { return &Plan{Op: OpScan, View: v} }

// NewJoin returns a join plan.
func NewJoin(kind JoinKind, nested bool, left *Plan, leftSlot int, right *Plan, rightSlot int) *Plan {
	return &Plan{Op: OpJoin, Kind: kind, Nested: nested,
		Left: left, Right: right, LeftSlot: leftSlot, RightSlot: rightSlot}
}

// OutSlots returns the plan's output schema.
func (p *Plan) OutSlots() []PlanSlot {
	if p.slots != nil {
		return p.slots
	}
	switch p.Op {
	case OpScan:
		rs := p.View.Pattern.Returns()
		out := make([]PlanSlot, len(rs))
		for i, rn := range rs {
			out[i] = PlanSlot{Attrs: rn.Attrs}
			if _, ok := p.View.VirtualSlots[i]; ok {
				out[i].Virtual = true
			}
		}
		p.slots = out
	case OpJoin:
		p.slots = append(append([]PlanSlot{}, p.Left.OutSlots()...), p.Right.OutSlots()...)
	case OpUnion:
		p.slots = p.Parts[0].OutSlots()
	case OpProject:
		in := p.Input.OutSlots()
		out := make([]PlanSlot, len(p.Keep))
		for i, k := range p.Keep {
			out[i] = in[k]
		}
		p.slots = out
	default:
		p.slots = p.Input.OutSlots()
	}
	return p.slots
}

// NumScans counts the view scans in the plan: the plan size |P| of
// Proposition 3.6.
func (p *Plan) NumScans() int {
	switch p.Op {
	case OpScan:
		return 1
	case OpJoin:
		return p.Left.NumScans() + p.Right.NumScans()
	case OpUnion:
		n := 0
		for _, part := range p.Parts {
			n += part.NumScans()
		}
		return n
	default:
		return p.Input.NumScans()
	}
}

// EachScan calls f once per view scan in the plan, left to right; a view
// scanned twice is reported twice.
func (p *Plan) EachScan(f func(*View)) {
	switch p.Op {
	case OpScan:
		f(p.View)
	case OpJoin:
		p.Left.EachScan(f)
		p.Right.EachScan(f)
	case OpUnion:
		for _, part := range p.Parts {
			part.EachScan(f)
		}
	default:
		p.Input.EachScan(f)
	}
}

// String renders the plan.
func (p *Plan) String() string {
	switch p.Op {
	case OpScan:
		return p.View.Name
	case OpJoin:
		op := p.Kind.String()
		if p.Nested {
			op = "n" + op
		}
		if p.Outer {
			op = "o" + op
		}
		return fmt.Sprintf("(%s %s[%d=%d] %s)", p.Left, op, p.LeftSlot, p.RightSlot, p.Right)
	case OpUnion:
		parts := make([]string, len(p.Parts))
		for i, part := range p.Parts {
			parts[i] = part.String()
		}
		return "(" + strings.Join(parts, " ∪ ") + ")"
	case OpProject:
		cols := make([]string, len(p.Keep))
		for i, k := range p.Keep {
			cols[i] = strconv.Itoa(k)
		}
		return "π[" + strings.Join(cols, ",") + "](" + p.Input.String() + ")"
	case OpSelectLabel:
		return fmt.Sprintf("σ[%d.L=%s](%s)", p.Slot, p.Label, p.Input)
	case OpSelectValue:
		return fmt.Sprintf("σ[%d.V: %s](%s)", p.Slot, p.Pred, p.Input)
	case OpUnnest:
		return fmt.Sprintf("unnest%v(%s)", p.Slots, p.Input)
	case OpGroupBy:
		return fmt.Sprintf("group%v@s%d(%s)", p.Slots, p.BySID, p.Input)
	}
	return "?"
}
