// Package wrappkg is the middle of the fact chain: trivial wrappers
// that must pass the storepkg facts through unchanged.
package wrappkg

import "fixture/chain/storepkg"

// Cached re-exports the shared accessor; sharedreturn propagates
// through the direct return.
func Cached(s *storepkg.Store, name string) *storepkg.Rel {
	return s.Extent(name)
}

// GrowAll forwards its argument to the mutator; the mutates fact
// follows the argument flow.
func GrowAll(r *storepkg.Rel) {
	storepkg.Grow(r)
}

// CheckStop forwards the poll; polls-ctx propagates through the call.
func CheckStop(done chan struct{}) bool {
	return storepkg.Cancelled(done)
}
