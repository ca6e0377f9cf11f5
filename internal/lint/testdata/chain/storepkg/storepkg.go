// Package storepkg is the bottom of the three-package chain used by the
// call-graph and facts tests: the polls-ctx fact originates here and must
// survive the wrappkg wrapper on its way to apppkg.
package storepkg

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
