// Package nodeid implements Dewey-style structural node identifiers with
// ORDPATH-like careting for order-preserving insertion.
//
// A Dewey ID encodes the path of level ordinals from the document root to a
// node. Dewey IDs have the two "structural ID" properties the paper relies
// on (Section 1 and Section 4.6):
//
//   - the parent/ancestor relationship between two nodes is decidable by
//     comparing their IDs alone (prefix test), enabling structural joins;
//   - the ID of a node's parent is derivable from the node's own ID
//     (truncation), enabling "virtual ID" attributes during rewriting.
//
// IDs also order nodes in document order (lexicographic comparison), which
// the stack-based structural join in internal/algebra depends on.
//
// # Careting
//
// To keep those properties under document updates, components follow the
// ORDPATH convention (O'Neil et al., SIGMOD 2004): an odd component
// terminates a level, while an even component (0 included) is a caret that
// extends the current level with the following components. Children are
// born with odd ordinals 1, 3, 5, …; inserting a sibling between 1.3 and
// 1.5 allocates 1.4.1 — one level deep, ordered between its neighbours —
// without renumbering any existing node. Every well-formed node ID
// therefore ends in an odd component, a proper prefix ending in an odd
// component is exactly an ancestor, and lexicographic order remains
// document order.
package nodeid

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey structural identifier. The zero value (nil) is the "null"
// ID, used for optional pattern nodes that did not bind.
type ID []uint32

// New returns a copy of the given components as an ID.
func New(components ...uint32) ID {
	id := make(ID, len(components))
	copy(id, components)
	return id
}

// Root is the ID of a document root.
func Root() ID { return ID{1} }

// IsNull reports whether the ID is the null identifier.
func (id ID) IsNull() bool { return len(id) == 0 }

// IsWellFormed reports whether the ID is a well-formed node identifier:
// non-null and ending in an odd (level-terminating) component.
func (id ID) IsWellFormed() bool {
	return len(id) > 0 && id[len(id)-1]%2 == 1
}

// Depth returns the depth of the node — the number of levels, i.e. of odd
// components; the root has depth 1. Caret (even) components extend the
// level ended by the next odd component and do not add depth.
func (id ID) Depth() int {
	d := 0
	for _, c := range id {
		if c%2 == 1 {
			d++
		}
	}
	return d
}

// Child returns the ID of the ord-th child (1-based birth position) of the
// node: ordinal k is encoded as the odd component 2k-1, leaving the even
// components free for carets.
func (id ID) Child(ord uint32) ID {
	c := make(ID, len(id)+1)
	copy(c, id)
	c[len(id)] = 2*ord - 1
	return c
}

// Parent returns the ID of the node's parent, or the null ID for the root
// (and for the null ID). This is the navfID primitive of Section 4.6. The
// whole last level is stripped: its terminating odd component and any caret
// components gluing to it. Parent is Ancestor(1).
func (id ID) Parent() ID { return id.Ancestor(1) }

// Ancestor returns the ID of the node up levels above id (Ancestor(0) is id
// itself), or the null ID when id has no such ancestor. It is one
// truncation, not a copy: the result shares id's array with its capacity
// capped at its length, so an append to it reallocates instead of writing
// into id. Like every ID, it must not be written in place.
func (id ID) Ancestor(up int) ID {
	end := len(id)
	for ; up > 0 && end > 0; up-- {
		// Strip the level's terminating component, then its carets.
		for end--; end > 0 && id[end-1]%2 == 0; end-- {
		}
	}
	if end == 0 {
		return nil
	}
	return id[:end:end]
}

// AncestorAtDepth returns the prefix of the ID covering the first depth
// levels, or the null ID if depth is out of range. AncestorAtDepth(
// id.Depth()) is the ID itself.
func (id ID) AncestorAtDepth(depth int) ID {
	if depth < 1 {
		return nil
	}
	seen := 0
	for i, c := range id {
		if c%2 == 1 {
			seen++
			if seen == depth {
				return id[:i+1].Clone()
			}
		}
	}
	return nil
}

// Clone returns an independent copy of the ID.
func (id ID) Clone() ID {
	if id == nil {
		return nil
	}
	c := make(ID, len(id))
	copy(c, id)
	return c
}

// Equal reports whether two IDs identify the same node.
func (id ID) Equal(other ID) bool {
	if len(id) != len(other) {
		return false
	}
	for i := range id {
		if id[i] != other[i] {
			return false
		}
	}
	return true
}

// IsAncestorOf reports whether id is a proper ancestor of other. For
// well-formed IDs (odd last component) the proper-prefix test is exact:
// a prefix ending in an odd component always falls on a level boundary.
func (id ID) IsAncestorOf(other ID) bool {
	if len(id) == 0 || len(id) >= len(other) {
		return false
	}
	for i := range id {
		if id[i] != other[i] {
			return false
		}
	}
	return true
}

// IsParentOf reports whether id is the parent of other: an ancestor whose
// remainder is exactly one level.
func (id ID) IsParentOf(other ID) bool {
	if !id.IsAncestorOf(other) {
		return false
	}
	levels := 0
	for _, c := range other[len(id):] {
		if c%2 == 1 {
			levels++
		}
	}
	return levels == 1
}

// Compare orders IDs in document order: -1 if id precedes other, 0 if they
// are equal, +1 if id follows other. An ancestor precedes its descendants.
func (id ID) Compare(other ID) int {
	n := len(id)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(id) < len(other):
		return -1
	case len(id) > len(other):
		return 1
	}
	return 0
}

// String renders the ID in dotted form, e.g. "1.3.2". The null ID renders
// as "⊥".
func (id ID) String() string {
	var b [32]byte
	return string(id.AppendTo(b[:0]))
}

// AppendTo appends the ID's String form to b and returns the extended
// buffer.
func (id ID) AppendTo(b []byte) []byte {
	if id.IsNull() {
		return append(b, "⊥"...)
	}
	for i, c := range id {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(c), 10)
	}
	return b
}

// Parse parses a dotted Dewey ID such as "1.3.2". It rejects empty
// components and IDs that are not well-formed node identifiers (the last
// component must be odd; caret components, 0 included, may only appear
// before it).
func Parse(s string) (ID, error) {
	if s == "" || s == "⊥" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	id := make(ID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("nodeid: invalid component %q in %q: %v", p, s, err)
		}
		id = append(id, uint32(v))
	}
	if !id.IsWellFormed() {
		return nil, fmt.Errorf("nodeid: %q does not end in an odd (level-terminating) component", s)
	}
	return id, nil
}

// VerticalDistance returns the depth difference other.Depth()-id.Depth() if
// id is an ancestor-or-self of other, and ok=false otherwise. Rewriting
// uses it to detect the constant "vertical distance" condition that enables
// virtual IDs (Section 4.6).
func (id ID) VerticalDistance(other ID) (dist int, ok bool) {
	if id.Equal(other) {
		return 0, true
	}
	if id.IsAncestorOf(other) {
		return other.Depth() - id.Depth(), true
	}
	return 0, false
}

// SiblingBetween allocates a fresh child ID under parent, ordered strictly
// between the adjacent siblings left and right (either or both may be nil:
// nil left means insert before the first child, nil right means append
// after the last). No existing ID changes — this is the Dewey-order-
// preserving allocation used by subtree insertion. left and right must be
// children of parent, with left < right when both are given.
func SiblingBetween(parent, left, right ID) (ID, error) {
	check := func(name string, sib ID) ([]uint32, error) {
		if !parent.IsParentOf(sib) {
			return nil, fmt.Errorf("nodeid: %s sibling %s is not a child of %s", name, sib, parent)
		}
		return sib[len(parent):], nil
	}
	var level []uint32
	switch {
	case left == nil && right == nil:
		level = []uint32{1}
	case left == nil:
		r, err := check("right", right)
		if err != nil {
			return nil, err
		}
		level = levelBefore(r)
	case right == nil:
		l, err := check("left", left)
		if err != nil {
			return nil, err
		}
		level = levelAfter(l)
	default:
		l, err := check("left", left)
		if err != nil {
			return nil, err
		}
		r, err := check("right", right)
		if err != nil {
			return nil, err
		}
		if left.Compare(right) >= 0 {
			return nil, fmt.Errorf("nodeid: siblings out of order (%s >= %s)", left, right)
		}
		level = levelBetween(l, r)
	}
	out := make(ID, 0, len(parent)+len(level))
	out = append(out, parent...)
	out = append(out, level...)
	return out, nil
}

// A level is a component sequence of the form even* odd: zero or more
// caret components followed by one terminating odd component. The helpers
// below construct levels ordered around existing ones; all results keep
// that form, so concatenating parent+level always yields a well-formed ID.

// levelBefore returns a level strictly below s in lexicographic order.
func levelBefore(s []uint32) []uint32 {
	switch {
	case s[0] == 0:
		// Can't go below a 0 caret at this position; recurse past it.
		return append([]uint32{0}, levelBefore(s[1:])...)
	case s[0]%2 == 0:
		// Even ≥ 2: the odd value just below it terminates a level.
		return []uint32{s[0] - 1}
	case s[0] >= 3:
		return []uint32{s[0] - 2}
	default: // s == [1]
		return []uint32{0, 1}
	}
}

// levelAfter returns a level strictly above s.
func levelAfter(s []uint32) []uint32 {
	if s[0]%2 == 1 {
		return []uint32{s[0] + 2}
	}
	return []uint32{s[0] + 1}
}

// levelBetween returns a level strictly between l and r (l < r). Distinct
// levels are never prefixes of one another (each contains exactly one odd
// component, its last), so they differ at some position.
func levelBetween(l, r []uint32) []uint32 {
	i := 0
	for ; i < len(l) && i < len(r) && l[i] == r[i]; i++ {
	}
	if r[i]-l[i] >= 2 {
		// Room for a component strictly between the two.
		x := l[i] + 1
		out := append(append([]uint32{}, l[:i]...), x)
		if x%2 == 0 {
			out = append(out, 1)
		}
		return out
	}
	// Adjacent components: no integer fits at position i.
	if i < len(l)-1 {
		// l extends beyond i, so bumping its terminating odd component into
		// a caret stays below r (they still differ at i).
		out := append([]uint32{}, l[:len(l)-1]...)
		return append(out, l[len(l)-1]+1, 1)
	}
	// l ends at i; r[i] = l[i]+1 is even, so r extends further. Follow r
	// and drop just below its remaining components.
	out := append([]uint32{}, r[:i+1]...)
	return append(out, levelBefore(r[i+1:])...)
}
