package core

import (
	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/summary"
)

// SearchSeeds prepares the rewriting search for q as Rewrite does. It
// returns the canonical models the search starts from (the query's, then
// one per seed view) and a function that runs the search over exactly
// those trees, so a test can check that the search leaves them untouched.
func SearchSeeds(q *pattern.Pattern, views []*View, s *summary.Summary, opts RewriteOptions) ([][]*Tree, func() (*RewriteResult, error), error) {
	rw, m0, err := newRewriter(q, views, s, opts)
	if err != nil {
		return nil, nil, err
	}
	models := [][]*Tree{rw.qModel}
	for _, e := range m0 {
		models = append(models, e.model)
	}
	return models, func() (*RewriteResult, error) { return rw.run(m0) }, nil
}

// Materialize returns a copy of t with its implied strong closure added as
// explicit nodes: under every node, in index order, one T node per strong
// summary child the node has no child for. That is the full tree the
// closure stands for, with t's own nodes keeping their indexes.
func Materialize(t *Tree) *Tree {
	out := t.clone(0)
	out.closed = false
	if !t.closed {
		return out
	}
	for i := 0; i < len(out.Nodes); i++ { // out.Nodes grows during the loop
		for _, sc := range t.Sum.Node(out.Nodes[i].SID).Children {
			if t.Sum.Node(sc).Strong && (i >= len(t.Nodes) || !t.hasChildTagged(i, sc)) {
				out.AddNode(i, sc, predicate.True())
			}
		}
	}
	return out
}

// BareNodes counts the materialized nodes of t that its implied closure
// already stands for: zero on every normalized tree.
func BareNodes(t *Tree) int {
	n := 0
	for _, d := range t.bareNodes() {
		if d {
			n++
		}
	}
	return n
}
