package core

import (
	"xmlviews/internal/pattern"
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
