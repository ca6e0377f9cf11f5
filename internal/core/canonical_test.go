package core

import (
	"testing"

	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// Figure 3's summary: a(b c(b d(b e))), paper node numbering
// 1:a 2:b 3:c 4:b 5:d 6:b 7:e.
func fig3S() *summary.Summary { return summary.MustParse("a(b c(b d(b e)))") }

func modelKeys(t *testing.T, p string, s *summary.Summary) []string {
	t.Helper()
	trees, err := Model(pattern.MustParse(p), s)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(trees))
	for i, tr := range trees {
		keys[i] = tr.String()
	}
	return keys
}

func mustModel(t *testing.T, p string, s *summary.Summary) []*Tree {
	t.Helper()
	trees, err := Model(pattern.MustParse(p), s)
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

func TestModelSimpleChain(t *testing.T) {
	s := summary.MustParse("a(b(c))")
	trees := mustModel(t, "a(//c[v])", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d, want 1: %v", len(trees), modelKeys(t, "a(//c[v])", s))
	}
	tr := trees[0]
	if tr.Size() != 3 {
		t.Fatalf("tree size = %d, want 3 (chain a-b-c)", tr.Size())
	}
	if tr.Slots[0].Node != 2 || tr.Label(tr.Slots[0].Node) != "c" {
		t.Fatalf("slot = %+v", tr.Slots[0])
	}
}

func TestModelWildcardEnumerates(t *testing.T) {
	s := fig3S()
	trees := mustModel(t, "a(//*[id])", s)
	// One tree per non-root summary node: 6.
	if len(trees) != 6 {
		t.Fatalf("model size = %d, want 6: %v", len(trees), modelKeys(t, "a(//*[id])", s))
	}
}

func TestModelTwoStarDedup(t *testing.T) {
	// Section 2.4: distinct embeddings may yield the same canonical tree.
	// p' = /a//*//e: the * can bind c or d on the path to e, but both
	// embeddings produce the chain a-c-d-e.
	s := fig3S()
	trees := mustModel(t, "a(//*(//e[id]))", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d, want 1 after dedup: %v", len(trees), modelKeys(t, "a(//*(//e[id]))", s))
	}
	if trees[0].Size() != 4 {
		t.Fatalf("tree = %s", trees[0])
	}
}

func TestModelSiblingChainsStaySeparate(t *testing.T) {
	// Two pattern children mapping to the same summary node keep separate
	// tree nodes: the general witness for one-vs-two document nodes.
	s := summary.MustParse("a(b(c d))")
	trees := mustModel(t, "a(/b[id](/c) /b(/d))", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d: %v", len(trees), modelKeys(t, "a(/b[id](/c) /b(/d))", s))
	}
	tr := trees[0]
	// a + two b's + c + d = 5 nodes.
	if tr.Size() != 5 {
		t.Fatalf("tree size = %d, want 5: %s", tr.Size(), tr)
	}
	if len(tr.Nodes[0].Children) != 2 {
		t.Fatalf("root should have two b children: %s", tr)
	}
}

func TestModelUnsatisfiable(t *testing.T) {
	s := summary.MustParse("a(b)")
	trees := mustModel(t, "a(/z[id])", s)
	if len(trees) != 0 {
		t.Fatalf("unsatisfiable pattern has model %v", modelKeys(t, "a(/z[id])", s))
	}
	// Contradictory predicate.
	trees = mustModel(t, "a(/b[id]{v>5 & v<2})", s)
	if len(trees) != 0 {
		t.Fatalf("contradictory predicate has non-empty model")
	}
	ok, err := Satisfiable(pattern.MustParse("a(//b[id])"), s)
	if err != nil || !ok {
		t.Fatalf("Satisfiable = %v, %v", ok, err)
	}
}

func TestModelStrongClosure(t *testing.T) {
	// Figure 8's idea: strong edges pull guaranteed children into the
	// canonical trees.
	s := summary.MustParse("a(!b(c) !d)")
	trees := mustModel(t, "a(/b[id])", s)
	if len(trees) != 1 {
		t.Fatal("want 1 tree")
	}
	tr := Materialize(trees[0])
	// Tree must contain a, b (slot), and d (strong child of a); c is not
	// strong under b so it is absent.
	if tr.Size() != 3 {
		t.Fatalf("tree = %s, want a(b d)", tr)
	}
	labels := map[string]bool{}
	for i := range tr.Nodes {
		labels[tr.Label(i)] = true
	}
	if !labels["d"] || labels["c"] {
		t.Fatalf("strong closure wrong: %s", tr)
	}

	// Plain summaries (Enhanced off) omit d.
	plain, err := ModelWith(pattern.MustParse("a(/b[id])"), s, ModelOptions{Enhanced: false})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Size() != 2 {
		t.Fatalf("plain tree = %s, want a(b)", plain[0])
	}
}

func TestModelStrongClosureChains(t *testing.T) {
	s := summary.MustParse("a(!b(!c(!d)))")
	trees := mustModel(t, "a[id]", s)
	if len(trees) != 1 || Materialize(trees[0]).Size() != 4 {
		t.Fatalf("strong chain closure failed: %v", modelKeys(t, "a[id]", s))
	}
}

func TestModelOptionalVariants(t *testing.T) {
	s := summary.MustParse("a(c(b))")
	trees := mustModel(t, "a(/c[id](?/b[id]))", s)
	// Two variants: b bound, b erased (⊥) — both realizable since c's b
	// child is not strong.
	if len(trees) != 2 {
		t.Fatalf("model size = %d: %v", len(trees), modelKeys(t, "a(/c[id](?/b[id]))", s))
	}
	bottoms := 0
	for _, tr := range trees {
		if tr.Slots[1].Node < 0 {
			bottoms++
		}
	}
	if bottoms != 1 {
		t.Fatalf("⊥ variants = %d, want 1", bottoms)
	}
}

func TestModelOptionalMaximalityFilter(t *testing.T) {
	// With a strong edge c→b, every c has a b child, so the ⊥ variant is
	// unrealizable and must be filtered out (Section 4.3 maximality).
	s := summary.MustParse("a(c(!b))")
	trees := mustModel(t, "a(/c[id](?/b[id]))", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d: %v", len(trees), modelKeys(t, "a(/c[id](?/b[id]))", s))
	}
	if trees[0].Slots[1].Node < 0 {
		t.Fatal("the surviving variant must bind b")
	}
}

func TestModelNestingSequences(t *testing.T) {
	s := summary.MustParse("a(b(c))")
	trees := mustModel(t, "a(n/b[id](n/c[id]))", s)
	if len(trees) != 1 {
		t.Fatal("want 1 tree")
	}
	tr := trees[0]
	slotB, slotC := tr.Slots[0], tr.Slots[1]
	if len(slotB.Nest) != 1 || tr.Sum.Node(slotB.Nest[0]).Label != "a" {
		t.Fatalf("b nest = %v", slotB.Nest)
	}
	if len(slotC.Nest) != 2 || tr.Sum.Node(slotC.Nest[1]).Label != "b" {
		t.Fatalf("c nest = %v", slotC.Nest)
	}
}

func TestModelMaxTrees(t *testing.T) {
	s := fig3S()
	_, err := ModelWith(pattern.MustParse("a(//*[id] //*[id] //*[id])"), s, ModelOptions{MaxTrees: 5})
	if err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestModelDecoratedSameSummaryNodeSeparateNodes(t *testing.T) {
	// Two pattern nodes with contradictory formulas on the same summary
	// node must stay separate tree nodes (Section 4.2).
	s := summary.MustParse("a(b)")
	trees := mustModel(t, "a(/b[id]{v=1} /b{v=2})", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d", len(trees))
	}
	if trees[0].Size() != 3 {
		t.Fatalf("tree = %s, want a with two b children", trees[0])
	}
	if !trees[0].Satisfiable() {
		t.Fatal("tree should be satisfiable with separate nodes")
	}
}

func TestRealizeProducesConformingDoc(t *testing.T) {
	s := fig3S()
	trees := mustModel(t, "a(//d[id]{v>3}(/b[v]{v<2}))", s)
	if len(trees) != 1 {
		t.Fatalf("model size = %d", len(trees))
	}
	doc, nodes := trees[0].Realize()
	if err := s.Annotate(doc); err != nil {
		t.Fatalf("realized doc does not conform: %v", err)
	}
	slot := trees[0].Slots[0]
	if nodes[slot.Node].Label != "d" || nodes[slot.Node].Value != "4" {
		t.Fatalf("realized d = %+v", nodes[slot.Node])
	}
	// The realized doc must produce the tree's return tuple under p.
	p := pattern.MustParse("a(//d[id]{v>3}(/b[v]{v<2}))")
	tuples := p.EvalNodeTuples(doc)
	found := false
	for _, tup := range tuples {
		if tup[0] == nodes[trees[0].Slots[0].Node] && tup[1] == nodes[trees[0].Slots[1].Node] {
			found = true
		}
	}
	if !found {
		t.Fatalf("return tuple not produced on realized doc: %v", tuples)
	}
}

// TestJoinKeepsImpliedCopyBesideMaterializedSibling: under a(!b c), v1's
// tree holds b{v=1} while v2's implies b. The model of their join is the
// glued full trees, so the root has v1's b and v2's implied one; the
// merged root no longer implies b, so the merge materializes the implied
// copy as a T sibling. Both join orders.
func TestJoinKeepsImpliedCopyBesideMaterializedSibling(t *testing.T) {
	s := summary.MustParse("a(!b c)")
	v1 := Scan(&View{Name: "v1", Pattern: pattern.MustParse(`a[id](/b{v=1})`)})
	v2 := Scan(&View{Name: "v2", Pattern: pattern.MustParse(`a[id](/c[v])`)})
	for _, join := range []*Plan{NewJoin(JoinID, false, v1, 0, v2, 0), NewJoin(JoinID, false, v2, 0, v1, 0)} {
		m, err := PlanModel(join, s, DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 1 {
			t.Fatalf("%s: %d trees, want 1", join, len(m))
		}
		tr := m[0]
		var bs []string
		for _, c := range tr.Nodes[0].Children {
			if tr.Label(c) == "b" {
				bs = append(bs, tr.Nodes[c].Pred.String())
			}
		}
		if len(bs) != 2 || bs[0] == bs[1] {
			t.Fatalf("%s: root's b children %v in %s, want b{v=1} and a T b", join, bs, tr)
		}
		if got := Materialize(tr).Size(); got != 4 {
			t.Fatalf("%s: materialized tree has %d nodes, want 4 (a, two b, c)", join, got)
		}
	}
}
