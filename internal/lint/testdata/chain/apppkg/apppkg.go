// Package apppkg is the top of the three-package chain: it only ever
// talks to wrappkg, so every fact observed here crossed two package
// boundaries.
package apppkg

import "fixture/chain/wrappkg"

// Stop polls through the middle package.
func Stop(done chan struct{}) bool {
	return wrappkg.CheckStop(done)
}

// StopLater polls only inside a function literal, which may run on
// another goroutine or never: the call is an edge, but the polls-ctx fact
// must not flow through it.
func StopLater(done chan struct{}) func() bool {
	return func() bool { return wrappkg.CheckStop(done) }
}
