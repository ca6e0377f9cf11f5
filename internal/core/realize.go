package core

import (
	"xmlviews/internal/xmltree"
)

// Realize turns a canonical tree into a concrete witness document: labels
// come from the summary tags and each node's value is a sample satisfying
// its formula. The document holds the implied closure too. The returned
// node list is indexed by materialized tree node index, so the document
// nodes bound to the return slots can be recovered.
//
// Realized documents are the counterexamples containment reports: the
// tree's return tuple is in p(doc) but not in q(doc).
func (t *Tree) Realize() (*xmltree.Document, []*xmltree.Node) {
	nodes := make([]*xmltree.Node, len(t.Nodes))
	doc := xmltree.NewDocument(t.Label(0))
	doc.Root.PathID = t.Nodes[0].SID
	var build func(ti int, n *xmltree.Node)
	build = func(ti int, n *xmltree.Node) {
		if ti < len(nodes) {
			nodes[ti] = n
		}
		if f := t.pred(ti); !f.IsTrue() {
			if a, ok := f.Sample(); ok {
				n.Value = a.Text()
			}
		}
		t.eachChild(ti, func(c int) {
			cn := n.AddChild(t.Label(c), "")
			cn.PathID = t.sid(c)
			build(c, cn)
		})
	}
	build(0, doc.Root)
	return doc, nodes
}
