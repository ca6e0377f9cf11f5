// Package storepkg is the bottom of the three-package chain used by the
// call-graph and facts tests: the callees and the polls-ctx fact
// originate here and must survive the wrappkg wrappers on their way to
// apppkg.
package storepkg

// Rel is a cached extent.
type Rel struct {
	Rows []int
}

// Store caches extents.
type Store struct {
	rels map[string]*Rel
}

// Extent returns the cached extent.
func (s *Store) Extent(name string) *Rel {
	return s.rels[name]
}

// Grow mutates its parameter in place.
func Grow(r *Rel) {
	r.Rows = append(r.Rows, 0)
}

// Cancelled polls the done channel — the cancellation primitive the
// polls-ctx fact tracks.
func Cancelled(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
