// Package xmltree implements the paper's data model (Section 2.1): XML
// documents as unranked, labeled, ordered trees. Every node carries a label,
// an optional atomic value, and a Dewey structural identifier from
// internal/nodeid. XML attributes are modeled as children labeled "@name",
// the usual Dataguide convention.
package xmltree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xmlviews/internal/nodeid"
)

// Node is one node of an XML tree. Nodes are created through Document and
// the parsing helpers so that identifiers and parent pointers stay
// consistent.
type Node struct {
	Label    string
	Value    string // concatenated, space-normalized text content directly under the node
	Parent   *Node
	Children []*Node
	ID       nodeid.ID
	// PathID is the summary (Dataguide) node this node maps to, assigned by
	// summary.Build; -1 when no summary has been attached.
	PathID int
}

// Document is a rooted XML tree.
type Document struct {
	Root *Node
	// Name is an optional document name (e.g. the source file), used in
	// diagnostics only.
	Name string
}

// NewDocument creates a document with a fresh root node carrying the given
// label.
func NewDocument(rootLabel string) *Document {
	return &Document{Root: &Node{Label: rootLabel, ID: nodeid.Root(), PathID: -1}}
}

// AddChild appends a new child with the given label and value under parent
// and returns it. The child's Dewey ID is allocated after the last child's,
// so appends keep the children in strictly increasing ID order even after
// careted insertions or deletions reshuffled the sibling list.
func (n *Node) AddChild(label, value string) *Node {
	var id nodeid.ID
	if len(n.Children) == 0 {
		id = n.ID.Child(1)
	} else {
		var err error
		id, err = nodeid.SiblingBetween(n.ID, n.Children[len(n.Children)-1].ID, nil)
		if err != nil {
			panic(fmt.Sprintf("xmltree: sibling allocation under %s: %v", n.ID, err))
		}
	}
	c := &Node{
		Label:  label,
		Value:  value,
		Parent: n,
		ID:     id,
		PathID: -1,
	}
	n.Children = append(n.Children, c)
	return c
}

// Walk visits n and all its descendants in document order. If fn returns
// false the subtree below the current node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Nodes returns all nodes of the document in document order.
func (d *Document) Nodes() []*Node {
	var out []*Node
	d.Root.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// Size returns the number of nodes in the document.
func (d *Document) Size() int {
	count := 0
	d.Root.Walk(func(*Node) bool { count++; return true })
	return count
}

// Depth returns the node's depth (root = 1).
func (n *Node) Depth() int { return n.ID.Depth() }

// IsAncestorOf reports whether n is a proper ancestor of other.
func (n *Node) IsAncestorOf(other *Node) bool { return n.ID.IsAncestorOf(other.ID) }

// Path returns the rooted simple path of the node, e.g. "/site/regions/item".
func (n *Node) Path() string {
	var labels []string
	for cur := n; cur != nil; cur = cur.Parent {
		labels = append(labels, cur.Label)
	}
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(labels[i])
	}
	return b.String()
}

// Subtree returns a deep copy of the subtree rooted at n, as a standalone
// document whose root keeps n's label and value but is re-identified from
// the root ID. It implements the C ("content") attribute of Section 4.4.
func (n *Node) Subtree() *Document {
	d := NewDocument(n.Label)
	d.Root.Value = n.Value
	var copyInto func(src, dst *Node)
	copyInto = func(src, dst *Node) {
		for _, c := range src.Children {
			nc := dst.AddChild(c.Label, c.Value)
			copyInto(c, nc)
		}
	}
	copyInto(n, d.Root)
	return d
}

// String renders the tree in the paper's parenthesized notation, e.g.
// `a(b "1" c(d))`. Values are quoted after the label.
func (n *Node) String() string { return string(n.AppendTo(nil)) }

// AppendTo appends the node's String form to b and returns the extended
// buffer.
func (n *Node) AppendTo(b []byte) []byte {
	b = append(b, n.Label...)
	if n.Value != "" {
		b = append(b, ' ')
		b = strconv.AppendQuote(b, n.Value)
	}
	if len(n.Children) > 0 {
		b = append(b, '(')
		for i, c := range n.Children {
			if i > 0 {
				b = append(b, ' ')
			}
			b = c.AppendTo(b)
		}
		b = append(b, ')')
	}
	return b
}

// FindByID returns the node with the given Dewey ID, or nil. It descends
// level by level, binary-searching each child list (children are kept in
// strictly increasing ID order), so it is O(depth · log fanout).
func (d *Document) FindByID(id nodeid.ID) *Node {
	if id.IsNull() || !id.IsWellFormed() || d.Root == nil || !d.Root.ID.Equal(id.AncestorAtDepth(1)) {
		return nil
	}
	cur := d.Root
	for !cur.ID.Equal(id) {
		// The covering child, if any, is the last one with ID <= id.
		i := sort.Search(len(cur.Children), func(i int) bool {
			return cur.Children[i].ID.Compare(id) > 0
		})
		if i == 0 {
			return nil
		}
		c := cur.Children[i-1]
		if !c.ID.Equal(id) && !c.ID.IsAncestorOf(id) {
			return nil
		}
		cur = c
	}
	return cur
}

// SubtreeKeepIDs returns a deep copy of the subtree rooted at n that keeps
// every node's original Dewey ID. Materialized views use it for C
// (content) attributes, so that navigation inside stored content still
// yields structural identifiers usable in joins (Section 4.6 of the paper).
func (n *Node) SubtreeKeepIDs() *Document {
	var copyNode func(src *Node, parent *Node) *Node
	copyNode = func(src *Node, parent *Node) *Node {
		c := &Node{Label: src.Label, Value: src.Value, Parent: parent, ID: src.ID.Clone(), PathID: src.PathID}
		for _, ch := range src.Children {
			c.Children = append(c.Children, copyNode(ch, c))
		}
		return c
	}
	return &Document{Root: copyNode(n, nil)}
}
