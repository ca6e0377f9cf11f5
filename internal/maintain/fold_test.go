package maintain

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/xmltree"
)

// foldDelta is the reference replay of one delta: rows in dels leave, rows
// in adds enter (ignored when already present), preserving storage order.
// FoldChain must equal folding a chain through it one delta at a time.
func foldDelta(base, adds, dels *nrel.Relation) *nrel.Relation {
	out := nrel.NewRelation(base.Cols...)
	delKeys := make(map[string]bool, dels.Len())
	for _, row := range dels.Rows {
		delKeys[rowKey(row)] = true
	}
	have := make(map[string]bool, base.Len())
	for _, row := range base.Rows {
		k := rowKey(row)
		if delKeys[k] {
			continue
		}
		have[k] = true
		out.Rows = append(out.Rows, row)
	}
	for _, row := range adds.Rows {
		if k := rowKey(row); !have[k] {
			have[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// foldGen draws small relations over a value domain narrow enough that
// keys collide often: ⊥ (and a nil content, which renders like it),
// strings, IDs, contents and, rarely, a nested table.
type foldGen struct {
	rng  *rand.Rand
	cols []string
}

func (g *foldGen) value() nrel.Value {
	switch g.rng.Intn(9) {
	case 0:
		return nrel.Null()
	case 1:
		return nrel.Content(nil)
	case 2, 3:
		return nrel.String([]string{"a", "b", "a b"}[g.rng.Intn(3)])
	case 4, 5:
		return nrel.ID([]nodeid.ID{{1, 1}, {1, 3}, {1, 3, 1}}[g.rng.Intn(3)])
	case 6, 7:
		return nrel.Content(xmltree.MustParseParen([]string{`x`, `x(y "1")`}[g.rng.Intn(2)]))
	}
	t := nrel.NewRelation("n")
	t.Append(nrel.Tuple{nrel.String("a")})
	return nrel.Table(t)
}

func (g *foldGen) row() nrel.Tuple {
	row := make(nrel.Tuple, len(g.cols))
	for i := range row {
		row[i] = g.value()
	}
	return row
}

// copyRow returns an equal row with its own backing array, as a delta
// file decodes one: a delete names a row by value, not by identity.
func copyRow(row nrel.Tuple) nrel.Tuple { return append(nrel.Tuple(nil), row...) }

// TestFoldChainMatchesSequentialFold: on random bases and chains of 0–20
// deltas, FoldChain returns the rows the one-delta-at-a-time reference
// returns, in its order, and folding the chain again over its own result
// changes nothing (the idempotence a torn compaction retry relies on).
// Every chain case the generator is meant to reach is counted and must be
// reached: keys deleted then re-added, added then deleted, settext pairs,
// adds repeated within one delta, empty deltas, duplicate base keys.
func TestFoldChainMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	seen := map[string]int{}
	for c := 0; c < 400; c++ {
		g := &foldGen{rng: rng, cols: []string{"c0", "c1", "c2"}[:1+rng.Intn(3)]}
		pool := make([]nrel.Tuple, 4+rng.Intn(10))
		for i := range pool {
			pool[i] = g.row()
		}
		base := nrel.NewRelation(g.cols...)
		baseKeys := map[string]bool{}
		for i := rng.Intn(16); i > 0; i-- {
			row := pool[rng.Intn(len(pool))]
			if baseKeys[rowKey(row)] {
				seen["duplicate base key"]++
			}
			baseKeys[rowKey(row)] = true
			base.Rows = append(base.Rows, row)
		}

		n := rng.Intn(21)
		adds, dels := make([]*nrel.Relation, n), make([]*nrel.Relation, n)
		ref := base
		added, deleted := map[string]nrel.Tuple{}, map[string]nrel.Tuple{}
		for i := 0; i < n; i++ {
			a, d := nrel.NewRelation(g.cols...), nrel.NewRelation(g.cols...)
			live := func() nrel.Tuple { return ref.Rows[rng.Intn(len(ref.Rows))] }
			for op := rng.Intn(5); op > 0; op-- {
				switch k := rng.Intn(7); {
				case k == 0 && len(ref.Rows) > 0: // settext: the old row leaves, a new one enters
					old := live()
					nu := copyRow(old)
					nu[rng.Intn(len(nu))] = nrel.String(fmt.Sprintf("t%d", rng.Intn(4)))
					d.Rows = append(d.Rows, copyRow(old))
					a.Rows = append(a.Rows, nu)
					seen["settext pair"]++
				case k == 1 && len(ref.Rows) > 0:
					d.Rows = append(d.Rows, copyRow(live()))
				case k == 2 && len(deleted) > 0:
					a.Rows = append(a.Rows, copyRow(pick(rng, deleted)))
					seen["deleted then re-added"]++
				case k == 3 && len(added) > 0:
					d.Rows = append(d.Rows, copyRow(pick(rng, added)))
					seen["added then deleted"]++
				case k == 4:
					row := pool[rng.Intn(len(pool))]
					a.Rows = append(a.Rows, row, copyRow(row))
					seen["add repeated in one delta"]++
				case k == 5:
					d.Rows = append(d.Rows, g.row()) // usually absent
				default:
					a.Rows = append(a.Rows, pool[rng.Intn(len(pool))])
				}
			}
			if a.Len()+d.Len() == 0 {
				seen["empty delta"]++
			}
			for _, row := range d.Rows {
				deleted[rowKey(row)] = row
			}
			for _, row := range a.Rows {
				added[rowKey(row)] = row
			}
			adds[i], dels[i] = a, d
			ref = foldDelta(ref, a, d)
		}

		got := FoldChain(base, adds, dels)
		if fmt.Sprint(got.Cols) != fmt.Sprint(ref.Cols) {
			t.Fatalf("case %d: columns %v, want %v", c, got.Cols, ref.Cols)
		}
		if g, w := sortedKeys(got), sortedKeys(ref); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("case %d (%d deltas): rows differ from the sequential fold\ngot  %q\nwant %q", c, n, g, w)
		}
		for i := range ref.Rows {
			if &got.Rows[i][0] != &ref.Rows[i][0] {
				t.Fatalf("case %d (%d deltas): row %d is %q, the sequential fold has %q there",
					c, n, i, rowKey(got.Rows[i]), rowKey(ref.Rows[i]))
			}
		}
		if again := FoldChain(got, adds, dels); !again.EqualAsSet(got) {
			t.Fatalf("case %d (%d deltas): folding the chain twice\n%swant\n%s", c, n, again.Sorted(), got.Sorted())
		}
		if n > 0 {
			seen["chain"]++
		}
	}
	for _, want := range []string{"chain", "duplicate base key", "settext pair", "deleted then re-added",
		"added then deleted", "add repeated in one delta", "empty delta"} {
		if seen[want] == 0 {
			t.Errorf("the generator never produced a %s", want)
		}
	}
}

// pick returns a random row of m, deterministically for a given rng state.
func pick(rng *rand.Rand, m map[string]nrel.Tuple) nrel.Tuple {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return m[keys[rng.Intn(len(keys))]]
}

func sortedKeys(r *nrel.Relation) []string {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = rowKey(row)
	}
	sort.Strings(keys)
	return keys
}
