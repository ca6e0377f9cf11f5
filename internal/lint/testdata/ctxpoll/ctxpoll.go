// Fixture for the ctxpoll analyzer: tuple loops without a cancellation
// poll are flagged; the sanctioned poll shapes and the nopoll annotation
// are not.
package ctxpoll

import "context"

type Tuple struct{ id int }

type rowPair struct{ left, right Tuple }

// sumBad burns CPU with no way to stop it.
func sumBad(rows []Tuple) int {
	n := 0
	for _, t := range rows { // want `tuple loop without a cancellation poll`
		n += t.id
	}
	return n
}

// pairBad: the element type matches row, so pair loops are covered too.
func pairBad(pairs []rowPair) int {
	n := 0
	for _, p := range pairs { // want `tuple loop without a cancellation poll`
		n += p.left.id
	}
	return n
}

// Extent is a read-only relation handle, read by row index.
type Extent struct{ rows []Tuple }

func (e Extent) Len() int       { return len(e.rows) }
func (e Extent) At(i int) Tuple { return e.rows[i] }

// countBad: a counted loop to an extent's Len is a tuple loop too.
func countBad(e Extent) int {
	n := 0
	for i := 0; i < e.Len(); i++ { // want `tuple loop without a cancellation poll`
		n += e.At(i).id
	}
	return n
}

// countPolled polls every 1024 rows.
func countPolled(ctx context.Context, e Extent) int {
	n := 0
	for i := 0; i < e.Len(); i++ {
		if i%1024 == 0 && ctx.Err() != nil {
			return n
		}
		n += e.At(i).id
	}
	return n
}

// countInts: a counted loop bounded by anything else is not a row loop.
func countInts(xs []int) int {
	n := 0
	for i := 0; i < len(xs); i++ {
		n += xs[i]
	}
	return n
}

// sumCtx polls the context directly.
func sumCtx(ctx context.Context, rows []Tuple) int {
	n := 0
	for i, t := range rows {
		if i%1024 == 0 && ctx.Err() != nil {
			return n
		}
		n += t.id
	}
	return n
}

// sumHelper polls through a probe callback named like the project's
// helpers.
func sumHelper(rows []Tuple, cancelled func() bool) int {
	n := 0
	for _, t := range rows {
		if cancelled() {
			break
		}
		n += t.id
	}
	return n
}

// sumSelect polls a done channel.
func sumSelect(done chan struct{}, rows []Tuple) int {
	n := 0
	for _, t := range rows {
		select {
		case <-done:
			return n
		default:
		}
		n += t.id
	}
	return n
}

// nested: a poll in the enclosing loop bounds the unpolled inner work by
// one block, which is the project's accepted granularity.
func nested(ctx context.Context, blocks [][]Tuple) int {
	n := 0
	for _, block := range blocks {
		if ctx.Err() != nil {
			return n
		}
		for _, t := range block {
			n += t.id
		}
	}
	return n
}

// closureResets: a poll OUTSIDE a function literal does not cover loops
// inside it — the literal may run on another goroutine.
func closureResets(ctx context.Context, rows []Tuple) func() int {
	if ctx.Err() != nil {
		return nil
	}
	return func() int {
		n := 0
		for _, t := range rows { // want `tuple loop without a cancellation poll`
			n += t.id
		}
		return n
	}
}

// checkEvery wraps the context poll the way extracted helpers do; it
// carries no sanctioned name, so only the polls-ctx fact can vouch for
// it.
func checkEvery(ctx context.Context, i int) bool {
	return i%1024 == 0 && ctx.Err() != nil
}

// sumViaHelper polls through the extracted helper: the interprocedural
// fact covers the loop even though nothing in the body matches a poll
// shape syntactically.
func sumViaHelper(ctx context.Context, rows []Tuple) int {
	n := 0
	for i, t := range rows {
		if checkEvery(ctx, i) {
			return n
		}
		n += t.id
	}
	return n
}

// applyAll must not be interrupted; the annotation names the reason.
//
//xvlint:nopoll applies under the store lock; aborting would leave half-applied state
func applyAll(rows []Tuple) int {
	n := 0
	for _, t := range rows {
		n += t.id
	}
	return n
}

// loopAnnotated carries the annotation on the loop itself.
func loopAnnotated(rows []Tuple) int {
	n := 0
	//xvlint:nopoll bounded by the caller's batch cap
	for _, t := range rows {
		n += t.id
	}
	return n
}

// notTuples ranges ints: out of scope regardless of polling.
func notTuples(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
