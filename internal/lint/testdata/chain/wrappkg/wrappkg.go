// Package wrappkg is the middle of the chain: a trivial wrapper whose
// call into storepkg must resolve to a cross-package edge.
package wrappkg

import "fixture/chain/storepkg"

// CheckStop forwards the poll; polls-ctx propagates through the call.
func CheckStop(done chan struct{}) bool {
	return storepkg.Cancelled(done)
}
