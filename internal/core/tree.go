// Package core implements the paper's primary contribution: the canonical
// model construction (Sections 2.4, 4.1–4.5), tree pattern containment
// under Dataguide constraints (Propositions 3.1, 3.2, 4.1, 4.2), and
// view-based rewriting (Algorithm 1 plus the Section 4.6 extensions).
package core

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"

	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/summary"
)

// Tree is a canonical tree: a labeled tree whose every node is tagged with
// a summary node (its path) and decorated with a value formula. Tree edges
// always connect a summary node to one of its summary children, so the path
// from the root to any tree node spells that node's rooted path.
//
// Unlike the paper's initial definition (which presents canonical trees as
// S-subtrees), a Tree may contain several sibling nodes tagged with the
// same summary node: this is the general form required for decorated
// patterns (Section 4.2) and for the join merges of the rewriting algorithm
// (Figure 5), and it is what makes canonical trees exact witness documents.
//
// The strong-edge closure of an enhanced summary (Section 4.1) is implied,
// not stored. In a tree built with it, every node stands for its closure:
// under a node tagged x, a summary child c of x is implied iff the edge
// into c is strong and the node has no materialized child tagged c. An
// implied node has formula T, no slot, no erased record and only implied
// children. Nodes holds the materialized nodes only: those the pattern, a
// join or a plan edit gave a formula, a slot, an erased record or an
// explicit child. Readers that walk the tree (matching, homomorphisms)
// reach the implied nodes through the summary; they address them by ids
// past the end of Nodes (see implied). Trees are kept normalized, so that
// equal models render equal keys: a node that is T, carries no slot and no
// erased record, has no materialized child, hangs off a strong edge, and
// is its parent's only child with its tag is never materialized.
//
// A published tree (one returned by a model or plan-model computation, or
// held by the search) is never mutated: its key is cached, and other trees
// share its parts. A derivative that only edits slots (withSlots) shares
// Nodes and Erased; one that edits a formula (withPred) copies the node
// array but shares the child lists. Nesting sequences are replaced, never
// written into. AddNode runs only on a tree under construction: a new one
// or a clone, which copies the node array, child lists, slots and erased
// records.
type Tree struct {
	Sum   *summary.Summary
	Nodes []TNode
	Slots []Slot
	// Erased records the optional pattern subtrees that were erased (bound
	// to ⊥) when this tree was built, together with the tree node their
	// parent was bound to. Containment needs them: a container pattern may
	// only claim a ⊥ slot if its own erased subtree is at least as easy to
	// match as the one recorded here (see erasedCompatible).
	Erased []ErasedSub

	closed bool   // the strong-edge closure is implied under every node
	key    string // cached canonical form
}

// ErasedSub is one erased optional subtree.
type ErasedSub struct {
	Parent int           // tree node the subtree's parent pattern node was bound to
	Root   *pattern.Node // the optional pattern child at the erased edge
}

// hasSlotIn reports whether the erased subtree contains a return node.
func (e ErasedSub) hasSlotIn() bool { return hasReturn(e.Root) }

func hasReturn(n *pattern.Node) bool {
	return n.IsReturn() || slices.ContainsFunc(n.Children, hasReturn)
}

// TNode is one canonical tree node.
type TNode struct {
	SID      int // summary node tag
	Parent   int // tree node index; -1 for the root
	Children []int
	Pred     predicate.Formula
}

// Slot is one return position of a canonical tree: the tree node bound to
// the corresponding pattern return node (or ⊥), the attributes stored
// there, and the nesting sequence (Section 4.5) as summary node ids.
type Slot struct {
	Node  int // tree node index, or -1 for ⊥
	Attrs pattern.Attrs
	Nest  []int // summary ids of the grouping ancestors; nil for ⊥ slots
}

// NewTree creates a canonical tree with a root tagged by the summary root.
func NewTree(s *summary.Summary) *Tree {
	t := &Tree{Sum: s}
	t.Nodes = append(t.Nodes, TNode{SID: summary.RootID, Parent: -1, Pred: predicate.True()})
	return t
}

// AddNode appends a child node under parent with the given summary tag and
// formula, returning its index. The tag must be a summary child of the
// parent's tag.
func (t *Tree) AddNode(parent, sid int, pred predicate.Formula) int {
	if t.Sum.Node(sid).Parent != t.Nodes[parent].SID {
		panic("core: AddNode violates summary edge structure")
	}
	idx := len(t.Nodes)
	t.Nodes = append(t.Nodes, TNode{SID: sid, Parent: parent, Pred: pred})
	t.Nodes[parent].Children = append(t.Nodes[parent].Children, idx)
	t.key = ""
	return idx
}

// AddChain appends the chain of summary nodes leading from the parent tree
// node's tag down to summary node sid (exclusive of the parent's tag),
// returning the index of the final node, which is decorated with pred;
// intermediate nodes get T.
func (t *Tree) AddChain(parent, sid int, pred predicate.Formula) int {
	chain, ok := t.Sum.ChainBetween(t.Nodes[parent].SID, sid)
	if !ok {
		panic("core: AddChain target not a descendant of parent tag")
	}
	cur := parent
	for i, s := range chain[1:] {
		f := predicate.True()
		if i == len(chain)-2 {
			f = pred
		}
		cur = t.AddNode(cur, s, f)
	}
	return cur
}

// Size returns the number of materialized tree nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// Arity returns the number of return slots.
func (t *Tree) Arity() int { return len(t.Slots) }

// Depth returns the tree depth of node i (root = 1).
func (t *Tree) Depth(i int) int {
	d := 0
	for ; i >= 0; i = t.Nodes[i].Parent {
		d++
	}
	return d
}

// AncestorAtDepth returns the ancestor-or-self of node i at tree depth d
// (root = 1), or -1.
func (t *Tree) AncestorAtDepth(i, d int) int {
	cur := i
	for cd := t.Depth(i); cd > d; cd-- {
		cur = t.Nodes[cur].Parent
	}
	if cur >= 0 && t.Depth(cur) == d {
		return cur
	}
	return -1
}

// Label returns the label of tree node i (its summary tag's label); i may
// address an implied node.
func (t *Tree) Label(i int) string { return t.Sum.Node(t.sid(i)).Label }

// Implied nodes are addressed by ids past the end of Nodes: the implied
// node tagged sid below the materialized node anchor (its nearest
// materialized ancestor) is len(Nodes) + sid·len(Nodes) + anchor. The id
// is unique, since the summary chain from the anchor's tag to sid is the
// node's only path, and it never equals a materialized index.
func (t *Tree) impliedID(anchor, sid int) int {
	n := len(t.Nodes)
	return n + sid*n + anchor
}

// implied decodes an implied node's id; ok is false for a materialized
// node.
func (t *Tree) implied(i int) (anchor, sid int, ok bool) {
	n := len(t.Nodes)
	if i < n {
		return i, t.Nodes[i].SID, false
	}
	return (i - n) % n, (i - n) / n, true
}

// sid returns the summary tag of node i, materialized or implied.
func (t *Tree) sid(i int) int {
	_, sid, _ := t.implied(i)
	return sid
}

// pred returns the formula of node i: T for an implied node.
func (t *Tree) pred(i int) predicate.Formula {
	if i < len(t.Nodes) {
		return t.Nodes[i].Pred
	}
	return predicate.True()
}

// eachChild calls f on every child of node i: its materialized children,
// then its implied ones in summary order.
func (t *Tree) eachChild(i int, f func(c int)) {
	anchor, sid, isImplied := t.implied(i)
	if !isImplied {
		for _, c := range t.Nodes[i].Children {
			f(c)
		}
	}
	if !t.closed {
		return
	}
	for _, sc := range t.Sum.Node(sid).Children {
		if t.Sum.Node(sc).Strong && (isImplied || !t.hasChildTagged(i, sc)) {
			f(t.impliedID(anchor, sc))
		}
	}
}

// eachDescendant calls f on every proper descendant of node i in preorder.
func (t *Tree) eachDescendant(i int, f func(d int)) {
	t.eachChild(i, func(c int) {
		f(c)
		t.eachDescendant(c, f)
	})
}

// hasChildTagged reports whether materialized node i has a materialized
// child tagged sid.
func (t *Tree) hasChildTagged(i, sid int) bool {
	for _, c := range t.Nodes[i].Children {
		if t.Nodes[c].SID == sid {
			return true
		}
	}
	return false
}

// Box returns the tree's formula conjunction φ_te as a box over tree node
// indexes; nodes with T are omitted.
func (t *Tree) Box() predicate.Box {
	b := predicate.NewBox()
	for i, n := range t.Nodes {
		if !n.Pred.IsTrue() {
			b = b.Constrain(i, n.Pred)
		}
	}
	return b
}

// Satisfiable reports whether no node formula is F.
func (t *Tree) Satisfiable() bool {
	for _, n := range t.Nodes {
		if n.Pred.IsFalse() {
			return false
		}
	}
	return true
}

// Key returns a canonical serialization of the tree: structure, tags,
// formulas, slot positions, erased subtrees, attributes and nesting
// sequences. Two trees with equal keys are isomorphic with identical
// decorations, which is the equality used for canonical-model dedup and
// for the redundant-join check of Proposition 3.5. The implied closure is
// not rendered: normalized trees describe equal models iff their
// materialized nodes are isomorphic. Erased records are keyed by their
// place in the canonical form and also by the index of their parent node,
// so two isomorphic trees numbered differently may get different keys:
// dedup is conservative, it never merges distinct trees.
//
// The key renders into one byte buffer: each node appends its tag,
// formula, slot marks and erased subtrees, then its children in place,
// whose byte spans are sorted and written back joined by spaces.
func (t *Tree) Key() string {
	if t.key != "" {
		return t.key
	}
	t.key = render(func(r *keyRenderer) {
		r.node(t, 0)
		for _, sl := range t.Slots {
			r.buf = append(r.buf, ';')
			if sl.Node < 0 {
				r.buf = append(r.buf, '~')
			}
			r.buf = append(r.buf, sl.Attrs.String()...)
			r.buf = append(r.buf, ':')
			for _, s := range sl.Nest {
				r.buf = strconv.AppendInt(r.buf, int64(s), 10)
				r.buf = append(r.buf, '.')
			}
		}
		r.group(len(t.Erased), '!', true, func(j int) {
			r.buf = strconv.AppendInt(r.buf, int64(t.Erased[j].Parent), 10)
			r.buf = append(r.buf, '@')
			r.sig(t.Erased[j].Root)
		})
	})
	return t.key
}

// subtreeSig serializes a pattern subtree (structure, labels, predicates,
// axes) for dedup keys.
func subtreeSig(n *pattern.Node) string {
	return render(func(r *keyRenderer) { r.sig(n) })
}

// keyRenderer holds the buffers of Key and subtreeSig: buf is the output
// so far, spans the byte ranges of the items rendered at each open group
// (a stack), scratch the space a group's sorted items are joined in.
type keyRenderer struct {
	buf, scratch []byte
	spans        []span
}

type span struct{ start, end int }

// keyRenderers recycles the buffers across calls and goroutines.
var keyRenderers = sync.Pool{New: func() any { return new(keyRenderer) }}

// render runs f on an empty pooled renderer and returns what it wrote.
func render(f func(r *keyRenderer)) string {
	r := keyRenderers.Get().(*keyRenderer)
	r.buf = r.buf[:0]
	f(r)
	s := string(r.buf)
	keyRenderers.Put(r)
	return s
}

func (r *keyRenderer) node(t *Tree, i int) {
	n := &t.Nodes[i]
	r.buf = strconv.AppendInt(r.buf, int64(n.SID), 10)
	r.pred(n.Pred)
	sep := byte('[')
	for k, sl := range t.Slots {
		if sl.Node == i {
			r.buf = append(r.buf, sep)
			r.buf = strconv.AppendInt(r.buf, int64(k), 10)
			sep = ','
		}
	}
	if sep == ',' {
		r.buf = append(r.buf, ']')
	}
	var erased []*pattern.Node
	for _, e := range t.Erased {
		if e.Parent == i {
			erased = append(erased, e.Root)
		}
	}
	if len(erased) > 0 {
		r.buf = append(r.buf, '<')
		r.group(len(erased), '!', false, func(j int) { r.sig(erased[j]) })
		r.buf = append(r.buf, '>')
	}
	if len(n.Children) > 0 {
		r.buf = append(r.buf, '(')
		r.group(len(n.Children), ' ', false, func(j int) { r.node(t, n.Children[j]) })
		r.buf = append(r.buf, ')')
	}
}

func (r *keyRenderer) sig(n *pattern.Node) {
	r.buf = append(r.buf, n.Axis.String()...)
	r.buf = append(r.buf, n.Label...)
	r.pred(n.Pred)
	if n.Optional {
		r.buf = append(r.buf, '?')
	}
	if len(n.Children) > 0 {
		r.buf = append(r.buf, '(')
		r.group(len(n.Children), ' ', false, func(j int) { r.sig(n.Children[j]) })
		r.buf = append(r.buf, ')')
	}
}

func (r *keyRenderer) pred(f predicate.Formula) {
	if !f.IsTrue() {
		r.buf = append(r.buf, '{')
		r.buf = append(r.buf, f.String()...)
		r.buf = append(r.buf, '}')
	}
}

// group renders n items with item, then rewrites them in byte order, each
// preceded by sep (the first one only when lead).
func (r *keyRenderer) group(n int, sep byte, lead bool, item func(i int)) {
	at, base := len(r.buf), len(r.spans)
	for i := 0; i < n; i++ {
		start := len(r.buf)
		item(i)
		r.spans = append(r.spans, span{start, len(r.buf)})
	}
	if spans := r.spans[base:]; n > 1 || lead {
		slices.SortFunc(spans, func(a, b span) int {
			return bytes.Compare(r.buf[a.start:a.end], r.buf[b.start:b.end])
		})
		r.scratch = r.scratch[:0]
		for j, sp := range spans {
			if j > 0 || lead {
				r.scratch = append(r.scratch, sep)
			}
			r.scratch = append(r.scratch, r.buf[sp.start:sp.end]...)
		}
		r.buf = append(r.buf[:at], r.scratch...)
	}
	r.spans = r.spans[:base]
}

// String renders the tree with labels for debugging.
func (t *Tree) String() string {
	var render func(i int) string
	render = func(i int) string {
		n := t.Nodes[i]
		s := t.Label(i)
		for k, sl := range t.Slots {
			if sl.Node == i {
				s += "#" + strconv.Itoa(k)
			}
		}
		if !n.Pred.IsTrue() {
			s += "{" + n.Pred.String() + "}"
		}
		if len(n.Children) > 0 {
			parts := make([]string, 0, len(n.Children))
			for _, c := range n.Children {
				parts = append(parts, render(c))
			}
			s += "(" + strings.Join(parts, " ") + ")"
		}
		return s
	}
	out := render(0)
	for k, sl := range t.Slots {
		if sl.Node < 0 {
			out += " #" + strconv.Itoa(k) + "=⊥"
		}
	}
	return out
}

// clone returns a copy of the tree that may grow, without its cached key
// (the caller is about to change the tree), with room for n more nodes.
// The copied child lists share one backing array, each capped at its
// length so that AddNode reallocates the one it appends to. Nesting
// sequences are shared: no tree writes into one.
func (t *Tree) clone(n int) *Tree {
	out := &Tree{Sum: t.Sum, Slots: slices.Clone(t.Slots), Erased: slices.Clone(t.Erased), closed: t.closed}
	out.Nodes = make([]TNode, len(t.Nodes), len(t.Nodes)+n)
	kids := make([]int, 0, len(t.Nodes))
	for i, nd := range t.Nodes {
		if len(nd.Children) > 0 {
			at := len(kids)
			kids = append(kids, nd.Children...)
			nd.Children = kids[at:len(kids):len(kids)]
		}
		out.Nodes[i] = nd
	}
	return out
}

// withSlots returns a tree with t's nodes and erased records (shared, not
// copied) and the given slots.
func (t *Tree) withSlots(slots []Slot) *Tree {
	return &Tree{Sum: t.Sum, Nodes: t.Nodes, Slots: slots, Erased: t.Erased, closed: t.closed}
}

// withPred returns a tree equal to t except that node i carries pred. The
// node array is copied; child lists, slots and erased records are shared.
func (t *Tree) withPred(i int, pred predicate.Formula) *Tree {
	nodes := slices.Clone(t.Nodes)
	nodes[i].Pred = pred
	return &Tree{Sum: t.Sum, Nodes: nodes, Slots: t.Slots, Erased: t.Erased, closed: t.closed}
}

// normalized returns t without the nodes its implied closure already
// stands for (the normalization rule of Tree), or t itself when there are
// none. The kept nodes stay in order; slots and erased records follow
// their renumbering.
func (t *Tree) normalized() *Tree {
	drop := t.bareNodes()
	if drop == nil {
		return t
	}
	out := NewTree(t.Sum)
	out.Nodes[0].Pred, out.closed = t.Nodes[0].Pred, true
	at := make([]int, len(t.Nodes))
	for i, nd := range t.Nodes[1:] {
		if !drop[i+1] {
			at[i+1] = out.AddNode(at[nd.Parent], nd.SID, nd.Pred)
		}
	}
	out.Slots = slices.Clone(t.Slots)
	for k, sl := range out.Slots {
		if sl.Node >= 0 {
			out.Slots[k].Node = at[sl.Node]
		}
	}
	out.Erased = slices.Clone(t.Erased)
	for k, e := range out.Erased {
		out.Erased[k].Parent = at[e.Parent]
	}
	return out
}

// bareNodes marks the materialized nodes the normalization drops, nil when
// there are none. Children follow their parent in Nodes, so one backward
// pass sees a node's children decided before the node.
func (t *Tree) bareNodes() []bool {
	if !t.closed {
		return nil
	}
	var drop []bool
	for i := len(t.Nodes) - 1; i > 0; i-- {
		if t.bare(i, drop) {
			if drop == nil {
				drop = make([]bool, len(t.Nodes))
			}
			drop[i] = true
		}
	}
	return drop
}

// bare reports whether node i is T, carries no slot and no erased record,
// has only dropped children, hangs off a strong edge, and is its parent's
// only child with its tag.
func (t *Tree) bare(i int, drop []bool) bool {
	n := &t.Nodes[i]
	if !n.Pred.IsTrue() || !t.Sum.Node(n.SID).Strong {
		return false
	}
	for _, c := range n.Children {
		if drop == nil || !drop[c] {
			return false
		}
	}
	for _, sl := range t.Slots {
		if sl.Node == i {
			return false
		}
	}
	for _, e := range t.Erased {
		if e.Parent == i {
			return false
		}
	}
	for _, c := range t.Nodes[n.Parent].Children {
		if c != i && t.Nodes[c].SID == n.SID {
			return false
		}
	}
	return true
}

// canonNest maps every element of a nesting sequence to the top of its
// one-to-one chain: if the edge into a summary node is one-to-one, nesting
// under it is equivalent to nesting under its parent (the relaxation of
// Proposition 4.2, condition 2(b)).
func canonNest(s *summary.Summary, nest []int) []int {
	out := make([]int, len(nest))
	for i, id := range nest {
		cur := id
		for cur != summary.RootID && s.Node(cur).OneToOne {
			cur = s.Node(cur).Parent
		}
		out[i] = cur
	}
	return out
}

// nestEqual compares two nesting sequences modulo one-to-one edges. A nil
// p-side sequence (⊥ slot) matches anything.
func nestEqual(s *summary.Summary, a, b []int, aIsBottom bool) bool {
	if aIsBottom {
		return true
	}
	return slices.Equal(canonNest(s, a), canonNest(s, b))
}
