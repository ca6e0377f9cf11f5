package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/experiments"
	"xmlviews/internal/patgen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmark"
)

// referenceKey is the straightforward recursive renderer of a canonical
// tree's key: one string per node, sibling strings sorted and joined. It
// never reads the tree's cached key, so it sees the tree as it is now.
// (*core.Tree).Key must produce exactly this string.
func referenceKey(t *core.Tree) string {
	slotsAt := map[int][]int{}
	for k, sl := range t.Slots {
		if sl.Node >= 0 {
			slotsAt[sl.Node] = append(slotsAt[sl.Node], k)
		}
	}
	erasedAt := map[int][]string{}
	for _, e := range t.Erased {
		erasedAt[e.Parent] = append(erasedAt[e.Parent], referenceSig(e.Root))
	}
	var render func(i int) string
	render = func(i int) string {
		n := t.Nodes[i]
		var b strings.Builder
		b.WriteString(strconv.Itoa(n.SID))
		if !n.Pred.IsTrue() {
			b.WriteByte('{')
			b.WriteString(n.Pred.String())
			b.WriteByte('}')
		}
		if ks := slotsAt[i]; len(ks) > 0 {
			b.WriteByte('[')
			for j, k := range ks {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(k))
			}
			b.WriteByte(']')
		}
		if es := erasedAt[i]; len(es) > 0 {
			sort.Strings(es)
			b.WriteByte('<')
			b.WriteString(strings.Join(es, "!"))
			b.WriteByte('>')
		}
		if len(n.Children) > 0 {
			parts := make([]string, 0, len(n.Children))
			for _, c := range n.Children {
				parts = append(parts, render(c))
			}
			sort.Strings(parts)
			b.WriteByte('(')
			b.WriteString(strings.Join(parts, " "))
			b.WriteByte(')')
		}
		return b.String()
	}
	var b strings.Builder
	b.WriteString(render(0))
	for _, sl := range t.Slots {
		b.WriteByte(';')
		if sl.Node < 0 {
			b.WriteByte('~')
		}
		b.WriteString(sl.Attrs.String())
		b.WriteByte(':')
		for _, s := range sl.Nest {
			b.WriteString(strconv.Itoa(s))
			b.WriteByte('.')
		}
	}
	erased := make([]string, 0, len(t.Erased))
	for _, e := range t.Erased {
		erased = append(erased, strconv.Itoa(e.Parent)+"@"+referenceSig(e.Root))
	}
	sort.Strings(erased)
	for _, e := range erased {
		b.WriteByte('!')
		b.WriteString(e)
	}
	return b.String()
}

// referenceSig serializes a pattern subtree (structure, labels,
// predicates, axes) the way erased records appear in keys.
func referenceSig(n *pattern.Node) string {
	var b strings.Builder
	b.WriteString(n.Axis.String())
	b.WriteString(n.Label)
	if !n.Pred.IsTrue() {
		b.WriteByte('{')
		b.WriteString(n.Pred.String())
		b.WriteByte('}')
	}
	if n.Optional {
		b.WriteByte('?')
	}
	if len(n.Children) > 0 {
		parts := make([]string, 0, len(n.Children))
		for _, c := range n.Children {
			parts = append(parts, referenceSig(c))
		}
		sort.Strings(parts)
		b.WriteByte('(')
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte(')')
	}
	return b.String()
}

// allGoldenRows is every input of testdata/rewrite.golden.
func allGoldenRows() []goldenRow {
	return append(append(append(smallCases(), concurrentRow()), coldRows()...), fig15Rows()...)
}

// checkKeys fails the test for every tree whose Key differs from the
// reference rendering, and reports the features the trees covered. Trees
// over one summary share a keySpace.
func checkKeys(t *testing.T, where string, model []*core.Tree, seen *keyFeatures, space keySpace) {
	t.Helper()
	for i, tr := range model {
		if got, want := tr.Key(), referenceKey(tr); got != want {
			t.Fatalf("%s tree %d: Key()\n%s\nreference\n%s", where, i, got, want)
		}
		if err := space.add(tr); err != nil {
			t.Fatalf("%s tree %d: %v", where, i, err)
		}
		seen.note(tr)
	}
}

// keySpace checks, over every tree added to it, that two trees have equal
// keys iff their materialized trees (the closure made explicit) render
// equal reference keys: the normalization neither merges distinct models
// nor splits equal ones. It maps each way, so the check is linear.
type keySpace struct{ toFull, toKey map[string]string }

func newKeySpace() keySpace { return keySpace{map[string]string{}, map[string]string{}} }

func (ks keySpace) add(tr *core.Tree) error {
	key, full := tr.Key(), referenceKey(core.Materialize(tr))
	if f, ok := ks.toFull[key]; ok && f != full {
		return fmt.Errorf("key %s names two materialized trees:\n%s\n%s", key, f, full)
	}
	if k, ok := ks.toKey[full]; ok && k != key {
		return fmt.Errorf("materialized tree %s has two keys:\n%s\n%s", full, k, key)
	}
	ks.toFull[key], ks.toKey[full] = full, key
	return nil
}

// keyFeatures records which key-relevant shapes the checked trees had, so
// the test proves it exercised each of them.
type keyFeatures struct {
	erased, sharedSlot, formula, twinSiblings, implied bool
}

func (f *keyFeatures) note(t *core.Tree) {
	f.erased = f.erased || len(t.Erased) > 0
	f.implied = f.implied || core.Materialize(t).Size() > t.Size()
	bound := map[int]bool{}
	for _, sl := range t.Slots {
		if sl.Node >= 0 && bound[sl.Node] {
			f.sharedSlot = true
		}
		bound[sl.Node] = true
	}
	for _, n := range t.Nodes {
		f.formula = f.formula || !n.Pred.IsTrue()
		sibs := map[string]bool{}
		for _, c := range n.Children {
			k := subtreeRef(t, c)
			f.twinSiblings = f.twinSiblings || sibs[k]
			sibs[k] = true
		}
	}
}

// subtreeRef renders the tags and formulas of a tree's subtree, for
// spotting identical siblings.
func subtreeRef(t *core.Tree, i int) string {
	s := strconv.Itoa(t.Nodes[i].SID) + "{" + t.Nodes[i].Pred.String() + "}("
	for _, c := range t.Nodes[i].Children {
		s += subtreeRef(t, c) + " "
	}
	return s + ")"
}

// TestTreeKeyMatchesReference pins the canonical key byte for byte: model
// dedup, sortedTrees order, modelKey and hence the search's discovery
// order all depend on it. It covers the golden rows' query and view
// models, the models of their rewritings, and random patgen patterns with
// their self-joins (erased subtrees, several slots on one node, value
// formulas, identical sibling subtrees, implied closures), over a summary
// without strong edges and one with them. Over each summary, two trees'
// keys must be equal iff their materialized trees' are.
func TestTreeKeyMatchesReference(t *testing.T) {
	var seen keyFeatures
	for _, row := range allGoldenRows() {
		space := newKeySpace()
		for _, m := range rowModels(t, row) {
			checkKeys(t, row.name+" "+m.where, m.trees, &seen, space)
		}
	}

	for _, text := range []string{
		"r(a(b(c d) c(d)) b(c(d) d) c(a(b)))",
		"r(!a(!b(c !d) c(!d)) b(!c(d) d) !c(a(!b)))",
	} {
		s := summary.MustParse(text)
		space := newKeySpace()
		r := rand.New(rand.NewSource(29))
		opts := core.DefaultModelOptions()
		for i := 0; i < 60; i++ {
			p, err := patgen.Generate(s, patgen.DefaultConfig(2+r.Intn(5), "b", "d"), r)
			if err != nil {
				t.Fatal(err)
			}
			v := &core.View{Name: "g", Pattern: p}
			scan := core.Scan(v)
			m, err := core.PlanModel(scan, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, fmt.Sprintf("%s random %d %s", text, i, p), m, &seen, space)
			// A self-join on the first return's ID glues two copies of
			// every tree: identical sibling subtrees and two slots on the
			// join node.
			for _, kind := range []core.JoinKind{core.JoinID, core.JoinAncestor} {
				join := core.NewJoin(kind, false, scan, 0, scan, 0)
				jm, err := core.PlanModel(join, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkKeys(t, fmt.Sprintf("%s random %d join %v", text, i, kind), jm, &seen, space)
				proj := &core.Plan{Op: core.OpProject, Input: join, Keep: []int{0, 0, 1}}
				pm, err := core.PlanModel(proj, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkKeys(t, fmt.Sprintf("%s random %d project %v", text, i, kind), pm, &seen, space)
			}
		}
	}
	if !seen.erased || !seen.sharedSlot || !seen.formula || !seen.twinSiblings || !seen.implied {
		t.Fatalf("trees did not cover every key feature: %+v", seen)
	}
}

// rowModel is one canonical model a golden row's search reads or yields.
type rowModel struct {
	where string
	trees []*core.Tree
}

// rowModels returns a golden row's query model, its views' models and the
// models of its rewritings.
func rowModels(t *testing.T, row goldenRow) []rowModel {
	t.Helper()
	q, err := core.ModelWith(row.q, row.s, row.opts.Model)
	if err != nil {
		t.Fatal(err)
	}
	out := []rowModel{{"query", q}}
	for _, v := range row.views {
		m, err := core.ModelWith(v.Pattern, row.s, row.opts.Model)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rowModel{"view " + v.Name, m})
	}
	res, err := row.run()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Rewritings {
		m, err := core.PlanModel(p, row.s, row.opts.Model)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rowModel{fmt.Sprintf("rewriting %d", i), m})
	}
	return out
}

// TestSearchDoesNotMutatePublishedTrees records the reference rendering of
// every tree a golden row's search starts from (the query's model and the
// seed views' models), runs the search, and requires each tree to render
// the same afterwards and its cached key to still agree. A derivative that
// wrote through a shared node array, child list or slot list would change
// one or the other. The search itself must still give the golden result.
func TestSearchDoesNotMutatePublishedTrees(t *testing.T) {
	want := readGolden(t)
	for _, row := range allGoldenRows() {
		t.Run(row.name, func(t *testing.T) {
			models, run, err := core.SearchSeeds(row.q, row.views, row.s, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			before := make([][]string, len(models))
			for i, m := range models {
				for _, tr := range m {
					before[i] = append(before[i], referenceKey(tr))
				}
			}
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if got := resultSignature(res); got != want[row.name] {
				t.Fatalf("search diverged from %s:\ngot:\n%s\nwant:\n%s", goldenFile, got, want[row.name])
			}
			for i, m := range models {
				for j, tr := range m {
					if got := referenceKey(tr); got != before[i][j] {
						t.Errorf("model %d tree %d changed during the search:\nbefore %s\nafter  %s", i, j, before[i][j], got)
					} else if tr.Key() != got {
						t.Errorf("model %d tree %d: cached key %s, tree renders %s", i, j, tr.Key(), got)
					}
				}
			}
		})
	}
}

// TestCanonicalTreesCarryNoBareClosure requires every tree of the golden
// rows' query, view and rewriting models to be normalized: no
// materialized node may be one the implied strong closure already stands
// for. It bounds the mean materialized nodes per tree for the benchmark's
// cold shapes and for the Figure 15 view set's Q2 (the query model and the
// seed views' models at 100 random views), and logs the materialized size
// (the closure made explicit) beside each.
func TestCanonicalTreesCarryNoBareClosure(t *testing.T) {
	var cold treeSizes
	for _, row := range allGoldenRows() {
		for _, m := range rowModels(t, row) {
			for i, tr := range m.trees {
				if n := core.BareNodes(tr); n > 0 {
					t.Fatalf("%s %s tree %d has %d bare closure nodes: %s", row.name, m.where, i, n, tr)
				}
				if strings.HasPrefix(row.name, "cold") {
					cold.add(tr)
				}
			}
		}
	}
	t.Logf("cold shapes: %s", cold)
	if cold.mean() > 6 {
		t.Errorf("cold shapes: %.1f nodes per tree, want at most 6", cold.mean())
	}

	s := experiments.XMarkSummary()
	opts := core.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 3
	opts.MaxResults = 4
	opts.MaxExplored = 30000
	opts.MaxNavDepth = 3
	models, _, err := core.SearchSeeds(xmark.Query(2), experiments.Fig15Views(s, 100, 77), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	var q2 treeSizes
	for _, m := range models {
		for i, tr := range m {
			if n := core.BareNodes(tr); n > 0 {
				t.Fatalf("fig15 Q2 tree %d has %d bare closure nodes: %s", i, n, tr)
			}
			q2.add(tr)
		}
	}
	t.Logf("fig15 Q2 at 100 views: %s", q2)
	if q2.mean() >= 20 {
		t.Errorf("fig15 Q2: %.1f nodes per tree, want under 20", q2.mean())
	}
}

// treeSizes sums materialized and full (closure explicit) node counts.
type treeSizes struct{ trees, nodes, full int }

func (z *treeSizes) add(t *core.Tree) {
	z.trees++
	z.nodes += t.Size()
	z.full += core.Materialize(t).Size()
}

func (z treeSizes) mean() float64 { return float64(z.nodes) / float64(z.trees) }

func (z treeSizes) String() string {
	return fmt.Sprintf("%d trees, %.1f nodes per tree (%.1f with the closure explicit)",
		z.trees, z.mean(), float64(z.full)/float64(z.trees))
}
