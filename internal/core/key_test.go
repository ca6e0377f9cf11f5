package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/patgen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
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
// reference rendering, and reports the features the trees covered.
func checkKeys(t *testing.T, where string, model []*core.Tree, seen *keyFeatures) {
	t.Helper()
	for i, tr := range model {
		if got, want := tr.Key(), referenceKey(tr); got != want {
			t.Fatalf("%s tree %d: Key()\n%s\nreference\n%s", where, i, got, want)
		}
		seen.note(tr)
	}
}

// keyFeatures records which key-relevant shapes the checked trees had, so
// the test proves it exercised each of them.
type keyFeatures struct {
	erased, sharedSlot, formula, twinSiblings bool
}

func (f *keyFeatures) note(t *core.Tree) {
	f.erased = f.erased || len(t.Erased) > 0
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
// formulas, identical sibling subtrees).
func TestTreeKeyMatchesReference(t *testing.T) {
	var seen keyFeatures
	for _, row := range allGoldenRows() {
		q, err := core.ModelWith(row.q, row.s, row.opts.Model)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, row.name+" query", q, &seen)
		for _, v := range row.views {
			m, err := core.ModelWith(v.Pattern, row.s, row.opts.Model)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, row.name+" view "+v.Name, m, &seen)
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
			checkKeys(t, fmt.Sprintf("%s rewriting %d", row.name, i), m, &seen)
		}
	}

	s := summary.MustParse("r(a(b(c d) c(d)) b(c(d) d) c(a(b)))")
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
		checkKeys(t, fmt.Sprintf("random %d %s", i, p), m, &seen)
		// A self-join on the first return's ID glues two copies of every
		// tree: identical sibling subtrees and two slots on the join node.
		for _, kind := range []core.JoinKind{core.JoinID, core.JoinAncestor} {
			join := core.NewJoin(kind, false, scan, 0, scan, 0)
			jm, err := core.PlanModel(join, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, fmt.Sprintf("random %d join %v", i, kind), jm, &seen)
			proj := &core.Plan{Op: core.OpProject, Input: join, Keep: []int{0, 0, 1}}
			pm, err := core.PlanModel(proj, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, fmt.Sprintf("random %d project %v", i, kind), pm, &seen)
		}
	}
	if !seen.erased || !seen.sharedSlot || !seen.formula || !seen.twinSiblings {
		t.Fatalf("trees did not cover every key feature: %+v", seen)
	}
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
