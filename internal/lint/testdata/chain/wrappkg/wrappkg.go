// Package wrappkg is the middle of the chain: trivial wrappers whose
// calls into storepkg must resolve to cross-package edges.
package wrappkg

import "fixture/chain/storepkg"

// Cached re-exports the accessor.
func Cached(s *storepkg.Store, name string) *storepkg.Rel {
	return s.Extent(name)
}

// GrowAll forwards its argument to the mutator.
func GrowAll(r *storepkg.Rel) {
	storepkg.Grow(r)
}

// CheckStop forwards the poll; polls-ctx propagates through the call.
func CheckStop(done chan struct{}) bool {
	return storepkg.Cancelled(done)
}
