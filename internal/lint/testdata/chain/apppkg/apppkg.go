// Package apppkg is the top of the three-package chain: it only ever
// talks to wrappkg, so every edge here into storepkg's facts crossed two
// package boundaries.
package apppkg

import (
	"fixture/chain/storepkg"
	"fixture/chain/wrappkg"
)

// MutateSharedBuggy obtains an extent through the middle package and
// grows it through another middle-package wrapper: two cross-package
// call edges.
func MutateSharedBuggy(s *storepkg.Store) {
	rel := wrappkg.Cached(s, "v")
	wrappkg.GrowAll(rel)
}

// ExtentFn takes the accessor's method value; the call graph records
// this as a reference edge, not a call.
func ExtentFn(s *storepkg.Store) func(string) *storepkg.Rel {
	return s.Extent
}
