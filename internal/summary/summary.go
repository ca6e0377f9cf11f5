// Package summary implements path summaries (strong Dataguides, Goldman &
// Widom [15]) and the paper's enhanced summaries (Section 4.1).
//
// The summary S(d) of a document d is a tree with one node per distinct
// rooted label path of d. An enhanced summary additionally distinguishes
//
//   - strong edges: every document node on the parent path has at least one
//     child on the child path (a parent-child integrity constraint), and
//   - one-to-one edges: every document node on the parent path has exactly
//     one child on the child path (used to relax the nesting-sequence
//     condition of Proposition 4.2).
//
// Summaries are built in linear time (as in [15]) and annotate each
// document node with its summary node id. Build produces a *canonical*
// summary: every node's children are ordered by label, and node ids are
// assigned in preorder of that canonical shape. Canonical summaries make
// the rendered text (and hence the catalog's summary hash) a pure function
// of the document's content — independent of element order and, crucially,
// of update history — which is what lets the incremental maintenance in
// Maintained reproduce Build's output byte for byte.
package summary

import (
	"fmt"
	"strings"

	"xmlviews/internal/xmltree"
)

// RootID is the summary node id of the document root path.
const RootID = 0

// Node is one summary node, i.e. one rooted label path.
type Node struct {
	ID       int
	Label    string
	Parent   int // parent summary node id; -1 for the root
	Children []int
	Depth    int // root has depth 1
	// Strong reports that the edge from Parent to this node is strong.
	// OneToOne implies Strong. Both are false for the root.
	Strong   bool
	OneToOne bool
	// Count is the number of document nodes on this path (0 for summaries
	// built by hand).
	Count int
	// TextBytes is the total size of the atomic values of the document
	// nodes on this path (0 for summaries built by hand). TextBytes/Count
	// is the average text size the cost model uses.
	TextBytes int64
}

// Summary is a path summary. Build one with Build or NewBuilder.
type Summary struct {
	nodes   []*Node
	byLabel map[string][]int
}

// Size returns |S|, the number of summary nodes. (A summary inside a
// Maintained may carry pruned holes; those do not count.)
func (s *Summary) Size() int {
	n := 0
	for _, nd := range s.nodes {
		if nd != nil {
			n++
		}
	}
	return n
}

// Node returns the summary node with the given id (nil for an id pruned by
// incremental maintenance).
func (s *Summary) Node(id int) *Node { return s.nodes[id] }

// NodeIDs returns all live node ids in creation (pre-)order.
func (s *Summary) NodeIDs() []int {
	ids := make([]int, 0, len(s.nodes))
	for i, nd := range s.nodes {
		if nd != nil {
			ids = append(ids, i)
		}
	}
	return ids
}

// NodesWithLabel returns the ids of summary nodes carrying the label.
func (s *Summary) NodesWithLabel(label string) []int { return s.byLabel[label] }

// Stats returns the number of strong (nS) and one-to-one (n1) edges, as
// reported in Table 1 of the paper.
func (s *Summary) Stats() (strong, oneToOne int) {
	for _, n := range s.nodes[1:] {
		if n == nil {
			continue
		}
		if n.Strong {
			strong++
		}
		if n.OneToOne {
			oneToOne++
		}
	}
	return
}

// HasStats reports whether the summary carries cardinality statistics
// (collected by Build, or parsed from annotated notation). Summaries built
// by hand have none; cost models fall back to uniform estimates then.
func (s *Summary) HasStats() bool {
	for _, n := range s.nodes {
		if n != nil && n.Count > 0 {
			return true
		}
	}
	return false
}

// DocNodes returns the total number of document nodes the statistics
// cover (0 without statistics).
func (s *Summary) DocNodes() int {
	total := 0
	for _, n := range s.nodes {
		if n != nil {
			total += n.Count
		}
	}
	return total
}

// TextBytes returns the total text size the statistics cover.
func (s *Summary) TextBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		if n != nil {
			total += n.TextBytes
		}
	}
	return total
}

// AvgFanout returns the average number of children on the node's path per
// document node on its parent's path: Count(node)/Count(parent). It is 1
// for the root and for summaries without statistics (uniform fallback).
func (s *Summary) AvgFanout(id int) float64 {
	n := s.nodes[id]
	if n.Parent < 0 {
		return 1
	}
	pc := s.nodes[n.Parent].Count
	if n.Count <= 0 || pc <= 0 {
		return 1
	}
	return float64(n.Count) / float64(pc)
}

// AvgTextBytes returns the average atomic-value size of document nodes on
// the node's path (0 without statistics).
func (s *Summary) AvgTextBytes(id int) float64 {
	n := s.nodes[id]
	if n.Count <= 0 {
		return 0
	}
	return float64(n.TextBytes) / float64(n.Count)
}

// IsAncestor reports whether summary node a is a proper ancestor of b.
func (s *Summary) IsAncestor(a, b int) bool {
	if a == b {
		return false
	}
	for cur := s.nodes[b].Parent; cur >= 0; cur = s.nodes[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// ChainBetween returns the summary node ids from a to b inclusive, where a
// must be b itself or an ancestor of b; ok is false otherwise.
func (s *Summary) ChainBetween(a, b int) (chain []int, ok bool) {
	for cur := b; cur >= 0; cur = s.nodes[cur].Parent {
		chain = append(chain, cur)
		if cur == a {
			// Reverse into root-to-leaf order.
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return chain, true
		}
	}
	return nil, false
}

// PathString returns the rooted label path of the node, e.g. "/site/regions".
func (s *Summary) PathString(id int) string {
	chain, _ := s.ChainBetween(RootID, id)
	var b strings.Builder
	for _, c := range chain {
		b.WriteByte('/')
		b.WriteString(s.nodes[c].Label)
	}
	return b.String()
}

// FindPath resolves a rooted simple path like "/site/regions/item" to a
// summary node id, or -1 if the path does not occur.
func (s *Summary) FindPath(path string) int {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 0 || parts[0] != s.nodes[RootID].Label {
		return -1
	}
	cur := RootID
	for _, label := range parts[1:] {
		next := -1
		for _, c := range s.nodes[cur].Children {
			if s.nodes[c].Label == label {
				next = c
				break
			}
		}
		if next < 0 {
			return -1
		}
		cur = next
	}
	return cur
}

// Descendants returns all proper descendants of the node, in preorder.
// Callers that only visit them use WalkDescendants, which builds no slice.
func (s *Summary) Descendants(id int) []int {
	var out []int
	s.WalkDescendants(id, func(d int) { out = append(out, d) })
	return out
}

// WalkDescendants calls f on every proper descendant of the node, in
// preorder.
func (s *Summary) WalkDescendants(id int, f func(int)) {
	for _, c := range s.nodes[id].Children {
		f(c)
		s.WalkDescendants(c, f)
	}
}

// StrongClosure returns the ids reachable from id by chains of strong edges
// going down, excluding id itself. It implements the enhanced-summary
// canonical model extension of Section 4.1.
func (s *Summary) StrongClosure(id int) []int {
	var out []int
	var walk func(int)
	walk = func(cur int) {
		for _, c := range s.nodes[cur].Children {
			if s.nodes[c].Strong {
				out = append(out, c)
				walk(c)
			}
		}
	}
	walk(id)
	return out
}

// String renders the summary in parenthesized form; strong edges are
// prefixed with '!', one-to-one edges with '='. Example: "a(!b(c) =d)".
func (s *Summary) String() string { return s.render(false) }

// StatsString renders the summary with per-node cardinality annotations:
// every node with statistics carries ':count:textbytes' after its label,
// e.g. "a:1:0(!b:40:520(c:40:80))". Parse accepts both forms, so the
// annotated text is what stores persist in their catalogs; summaries
// without statistics render identically to String.
func (s *Summary) StatsString() string { return s.render(true) }

func (s *Summary) render(stats bool) string {
	var b strings.Builder
	var write func(id int)
	write = func(id int) {
		n := s.nodes[id]
		if id != RootID {
			if n.OneToOne {
				b.WriteByte('=')
			} else if n.Strong {
				b.WriteByte('!')
			}
		}
		b.WriteString(n.Label)
		if stats && n.Count > 0 {
			fmt.Fprintf(&b, ":%d:%d", n.Count, n.TextBytes)
		}
		if len(n.Children) > 0 {
			b.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(' ')
				}
				write(c)
			}
			b.WriteByte(')')
		}
	}
	write(RootID)
	return b.String()
}

// Build constructs the enhanced summary of the document and annotates every
// document node's PathID with its summary node id. Strong and one-to-one
// edges are detected by counting child occurrences, the "counting nodes
// when building the summary" option of Section 4.1. The result is
// canonical: children are ordered by label and ids assigned in preorder of
// that shape, so two documents with the same path statistics render to the
// same text regardless of element order or update history.
func Build(doc *xmltree.Document) *Summary {
	return NewMaintained(doc).s
}

// rawBuild walks the document once, creating summary nodes in first-
// encounter order and collecting the per-edge occurrence counters that
// strong/one-to-one detection (and incremental maintenance) needs. Node
// ids are canonicalized afterwards.
type rawBuild struct {
	s          *Summary
	childIndex []map[string]int
	// withChild[cid] is the number of document nodes on cid's parent path
	// with at least one child on cid; withMany[cid] the number with more
	// than one.
	withChild map[int]int
	withMany  map[int]int
}

func buildRaw(doc *xmltree.Document) *rawBuild {
	r := &rawBuild{
		s:         &Summary{byLabel: map[string][]int{}},
		withChild: map[int]int{},
		withMany:  map[int]int{},
	}
	root := &Node{ID: 0, Label: doc.Root.Label, Parent: -1, Depth: 1}
	r.s.nodes = append(r.s.nodes, root)
	r.s.byLabel[root.Label] = append(r.s.byLabel[root.Label], 0)
	r.childIndex = []map[string]int{{}}

	var visit func(n *xmltree.Node, sid int)
	visit = func(n *xmltree.Node, sid int) {
		n.PathID = sid
		r.s.nodes[sid].Count++
		r.s.nodes[sid].TextBytes += int64(len(n.Value))
		perChild := map[int]int{}
		for _, c := range n.Children {
			cid, ok := r.childIndex[sid][c.Label]
			if !ok {
				cid = len(r.s.nodes)
				cn := &Node{ID: cid, Label: c.Label, Parent: sid, Depth: r.s.nodes[sid].Depth + 1}
				r.s.nodes = append(r.s.nodes, cn)
				r.childIndex = append(r.childIndex, map[string]int{})
				r.childIndex[sid][c.Label] = cid
				r.s.nodes[sid].Children = append(r.s.nodes[sid].Children, cid)
				r.s.byLabel[c.Label] = append(r.s.byLabel[c.Label], cid)
			}
			perChild[cid]++
			visit(c, cid)
		}
		for cid, count := range perChild {
			r.withChild[cid]++
			if count > 1 {
				r.withMany[cid]++
			}
		}
	}
	visit(doc.Root, 0)

	for _, n := range r.s.nodes[1:] {
		parentCount := r.s.nodes[n.Parent].Count
		if r.withChild[n.ID] == parentCount {
			n.Strong = true
			if r.withMany[n.ID] == 0 {
				n.OneToOne = true
			}
		}
	}
	return r
}

// Annotate maps this summary onto another document, setting every node's
// PathID. It returns an error if the document contains a path absent from
// the summary (the document does not conform).
func (s *Summary) Annotate(doc *xmltree.Document) error {
	if doc.Root.Label != s.nodes[RootID].Label {
		return fmt.Errorf("summary: root label %q does not match summary root %q", doc.Root.Label, s.nodes[RootID].Label)
	}
	var visit func(n *xmltree.Node, sid int) error
	visit = func(n *xmltree.Node, sid int) error {
		n.PathID = sid
		for _, c := range n.Children {
			cid := -1
			for _, sc := range s.nodes[sid].Children {
				if s.nodes[sc].Label == c.Label {
					cid = sc
					break
				}
			}
			if cid < 0 {
				return fmt.Errorf("summary: path %s/%s not in summary", s.PathString(sid), c.Label)
			}
			if err := visit(c, cid); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(doc.Root, RootID)
}

// Conforms reports whether S(doc) equals this summary exactly (the paper's
// S |= d) and, for enhanced summaries, whether the document respects every
// strong and one-to-one constraint.
func (s *Summary) Conforms(doc *xmltree.Document) bool {
	other := Build(doc)
	if len(s.nodes) != len(other.nodes) {
		return false
	}
	// Node ids may differ if sibling paths were first encountered in a
	// different order, so compare by path string. The rebuilt summary
	// carries the document's actual strong/one-to-one edges; every
	// constraint declared here must hold there.
	byPath := make(map[string]*Node, len(other.nodes))
	for _, n := range other.nodes {
		byPath[other.PathString(n.ID)] = n
	}
	for _, n := range s.nodes {
		on, ok := byPath[s.PathString(n.ID)]
		if !ok {
			return false
		}
		if n.Strong && !on.Strong {
			return false
		}
		if n.OneToOne && !on.OneToOne {
			return false
		}
	}
	return true
}
