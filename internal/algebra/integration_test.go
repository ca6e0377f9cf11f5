package algebra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// queryColumns lists the attribute columns of the query's slots in order.
func queryColumns(q *pattern.Pattern) []string {
	var cols []string
	for k, rn := range q.Returns() {
		for _, attr := range []string{"id", "l", "v", "c"} {
			var mask pattern.Attrs
			switch attr {
			case "id":
				mask = pattern.AttrID
			case "l":
				mask = pattern.AttrLabel
			case "v":
				mask = pattern.AttrValue
			case "c":
				mask = pattern.AttrContent
			}
			if rn.Attrs.Has(mask) {
				cols = append(cols, view.SlotCol(k, attr))
			}
		}
	}
	return cols
}

// checkScenario rewrites q over the views, executes every rewriting on the
// document, and compares with direct query evaluation (flattened).
func checkScenario(t *testing.T, docSrc, qSrc string, views ...*core.View) int {
	t.Helper()
	doc := xmltree.MustParseParen(docSrc)
	s := summary.Build(doc)
	q := pattern.MustParse(qSrc)

	res, err := core.Rewrite(q, views, s, core.DefaultRewriteOptions())
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if len(res.Rewritings) == 0 {
		t.Fatalf("no rewritings for %s", qSrc)
	}

	want := view.MaterializeFlat(&core.View{Name: "q", Pattern: q}, doc).Project(queryColumns(q)...)
	st := view.NewStore(doc, baseViews(views))
	for _, plan := range res.Rewritings {
		got, err := Execute(plan, st)
		if err != nil {
			t.Fatalf("Execute(%s): %v", plan, err)
		}
		gotProj := got.Rel.Project(queryColumns(q)...)
		if !gotProj.EqualAsSet(want) {
			t.Errorf("plan %s result mismatch\n got:\n%s\nwant:\n%s", plan, gotProj.Sorted(), want.Sorted())
		}
	}
	return len(res.Rewritings)
}

// baseViews materializes only the user-defined views; derived views are
// computed by the executor.
func baseViews(views []*core.View) []*core.View {
	out := make([]*core.View, len(views))
	copy(out, views)
	return out
}

func v(name, pat string) *core.View {
	return &core.View{Name: name, Pattern: pattern.MustParse(pat), DerivableParentIDs: true}
}

func TestEndToEndIdentity(t *testing.T) {
	checkScenario(t,
		`site(item(name "pen" price "3") item(name "ink" price "7"))`,
		`site(/item[id](/name[v]))`,
		v("v1", `site(/item[id](/name[v]))`))
}

func TestEndToEndLabelSelection(t *testing.T) {
	checkScenario(t,
		`a(b "1" c "2" b "3")`,
		`a(/b[id])`,
		v("all", `a(/*[id,l])`))
}

func TestEndToEndValueSelection(t *testing.T) {
	checkScenario(t,
		`a(b "1" b "7" b "9")`,
		`a(/b[id]{v>5})`,
		v("vb", `a(/b[id,v])`))
}

func TestEndToEndIDJoin(t *testing.T) {
	checkScenario(t,
		`a(b(c "1" d "x") b(c "2" d "y") b(c "3"))`,
		`a(//b[id](/c[v] /d[v]))`,
		v("vc", `a(//b[id](/c[v]))`),
		v("vd", `a(//b[id](/d[v]))`))
}

func TestEndToEndStructuralJoin(t *testing.T) {
	checkScenario(t,
		`r(a(b "1" b "2") a(b "3") a)`,
		`r(//a[id](//b[id,v]))`,
		v("va", `r(//a[id])`),
		v("vb", `r(//b[id,v])`))
}

func TestEndToEndOptional(t *testing.T) {
	checkScenario(t,
		`site(item(name "pen" mail "m1") item(name "ink"))`,
		`site(/item[id](?/mail[v]))`,
		v("v1", `site(/item[id](?/mail[v]))`))
}

func TestEndToEndVirtualID(t *testing.T) {
	checkScenario(t,
		`a(b(c "1") b(c "2"))`,
		`a(/b[id](/c[v]))`,
		v("vc", `a(/b(/c[id,v]))`))
}

func TestEndToEndNavigation(t *testing.T) {
	checkScenario(t,
		`a(b(d "x" d "y") b(d "z") b)`,
		`a(//b[id](/d[v]))`,
		v("vb", `a(//b[id,c])`))
}

func TestEndToEndUnion(t *testing.T) {
	checkScenario(t,
		`a(b "1" c "2" b "3")`,
		`a(/*[id,v])`,
		v("vb", `a(/b[id,v])`),
		v("vc", `a(/c[id,v])`))
}

// The paper's Figure 5 scenario end to end: the only rewriting is a join
// whose result is not expressible as a single pattern.
func TestEndToEndFigure5(t *testing.T) {
	checkScenario(t,
		`r(a(b "1" c(b "2")) c(b "3" a(b "4")))`,
		`r(//*(//*(//b[id,v])))`,
		v("p1", `r(//a(//b[id,v]))`),
		v("p2", `r(//c(//b[id,v]))`))
}

// The running example of Section 1, scaled down: V1 stores item IDs with
// optional listitem content; V2 stores item names. The query needs both,
// combined by an ID join.
func TestEndToEndRunningExample(t *testing.T) {
	doc := `site(regions(asia(
		item(name "pen" description(parlist(listitem(keyword "Columbus") listitem(text "steel"))) mailbox(mail "m1"))
		item(name "ink" description(parlist(listitem(keyword "Dickens"))) mailbox(mail "m2"))
		item(name "dry" description(parlist) mailbox(mail "m3")))))`
	checkScenario(t, doc,
		`site(//item[id](/name[v] ?//listitem[id]))`,
		v("V1", `site(//item[id](?//listitem[id]))`),
		v("V2", `site(//item[id](/name[v]))`))
}

func TestEndToEndNestedOutput(t *testing.T) {
	// Nested query: the flattened comparison still validates tuple content;
	// nesting metadata is carried on the plan slots.
	doc := `a(b "1" (c "x" c "y") b "2" (c "z"))`
	docT := xmltree.MustParseParen(doc)
	s := summary.Build(docT)
	q := pattern.MustParse(`a(/b[id](n/c[v]))`)
	res, err := core.Rewrite(q, []*core.View{
		v("vb", `a(/b[id])`),
		v("vcv", `a(//c[id,v])`),
	}, s, core.DefaultRewriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		t.Fatal("no nested rewriting")
	}
	st := view.NewStore(docT, []*core.View{
		v("vb", `a(/b[id])`),
		v("vcv", `a(//c[id,v])`),
	})
	got, err := Execute(res.Rewritings[0], st)
	if err != nil {
		t.Fatal(err)
	}
	// Flat comparison against the flattened query.
	want := view.MaterializeFlat(&core.View{Name: "q", Pattern: q}, docT)
	cols := []string{view.SlotCol(0, "id"), view.SlotCol(1, "v")}
	if !got.Rel.Project(cols...).EqualAsSet(want.Project(cols...)) {
		t.Fatalf("nested plan mismatch\ngot %s\nwant %s",
			got.Rel.Project(cols...).Sorted(), want.Project(cols...).Sorted())
	}
}

// nestedLoopStructuralJoin is the quadratic reference the stack-based
// join is checked and benchmarked against: every left row against every
// right row.
func nestedLoopStructuralJoin(l nrel.Extent, lid int, r nrel.Extent, rid int, parentOnly bool) []joinedRow {
	var out []joinedRow
	for i := 0; i < l.Len(); i++ {
		a := l.At(i, lid)
		if a.IsNull() {
			continue
		}
		for j := 0; j < r.Len(); j++ {
			d := r.At(j, rid)
			if d.IsNull() {
				continue
			}
			if parentOnly {
				if a.ID.IsParentOf(d.ID) {
					out = append(out, joinedRow{i, j})
				}
			} else if a.ID.IsAncestorOf(d.ID) {
				out = append(out, joinedRow{i, j})
			}
		}
	}
	return out
}

// renderKey renders the values of row i of e, each followed by a NUL.
func renderKey(e nrel.Extent, i int) string {
	var b strings.Builder
	for _, v := range e.AppendValues(nil, i) {
		b.WriteString(v.Render())
		b.WriteByte(0)
	}
	return b.String()
}

// structuralJoinAgrees executes kind-join of the two scans and returns the
// number of distinct output rows, failing unless they are exactly the
// pairs the nested-loop reference finds over the same extents.
func structuralJoinAgrees(t *testing.T, st *view.Store, va, vb *core.View, kind core.JoinKind) int {
	t.Helper()
	res, err := Execute(core.NewJoin(kind, false, core.Scan(va), 0, core.Scan(vb), 0), st)
	if err != nil {
		t.Fatal(err)
	}
	l, r := st.Relation(va), st.Relation(vb)
	want := map[string]bool{}
	for _, jr := range nestedLoopStructuralJoin(l, l.ColIndex(view.SlotCol(0, "id")),
		r, r.ColIndex(view.SlotCol(0, "id")), kind == core.JoinParent) {
		want[renderKey(l, jr.left)+renderKey(r, jr.right)] = true
	}
	for i, row := range res.Rel.Rows {
		if !want[renderKey(res.Rel.Extent(), i)] {
			t.Fatalf("kind %d: stack join row %v not in the nested-loop result", kind, row)
		}
	}
	if res.Rel.Len() != len(want) {
		t.Fatalf("kind %d: stack join has %d rows, nested loop %d", kind, res.Rel.Len(), len(want))
	}
	return len(want)
}

func TestStructuralJoinAlgorithmsAgree(t *testing.T) {
	va, vb := v("va", `r(//a[id])`), v("vb", `r(//b[id,v])`)
	doc := xmltree.MustParseParen(
		`r(a(b "1" a(b "2" b "3") b "4") a(b "5") b "6")`)
	st := view.NewStore(doc, []*core.View{va, vb})
	anc := structuralJoinAgrees(t, st, va, vb, core.JoinAncestor)
	if anc == 0 {
		t.Fatal("expected join results")
	}
	if structuralJoinAgrees(t, st, va, vb, core.JoinParent) >= anc {
		t.Fatal("parent join should be a strict subset of ancestor join here")
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		st := view.NewStore(randomVecDoc(rng), []*core.View{va, vb})
		structuralJoinAgrees(t, st, va, vb, core.JoinAncestor)
		structuralJoinAgrees(t, st, va, vb, core.JoinParent)
	}
}

// TestSortTuplesStable checks that document-order sorting keeps the input
// order of duplicate IDs (the stack structural join groups them).
func TestSortTuplesStable(t *testing.T) {
	rel := nrel.NewRelation(view.SlotCol(0, "id"), view.SlotCol(0, "v"))
	ids := [][]uint32{{1, 2}, {1, 1}, {1, 2}, {1}, {1, 1}, {1, 3}}
	for i, id := range ids {
		rel.Append(nrel.Tuple{nrel.ID(id), nrel.String(fmt.Sprintf("r%d", i))})
	}
	var got []string
	for _, i := range sortedByID(rel.Extent(), 0, nil) {
		got = append(got, rel.Rows[i][1].Str)
	}
	want := []string{"r3", "r1", "r4", "r0", "r2", "r5"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// BenchmarkStructuralJoin compares the stack-based structural join with
// the nested-loop baseline, kernel against kernel over the same XMark
// extents.
func BenchmarkStructuralJoin(b *testing.B) {
	doc := datagen.XMark(16, 5)
	va, vb := v("va", `site(//item[id])`), v("vb", `site(//keyword[id,v])`)
	st := view.NewStore(doc, []*core.View{va, vb})
	l, r := st.Relation(va), st.Relation(vb)
	lid, rid := l.ColIndex(view.SlotCol(0, "id")), r.ColIndex(view.SlotCol(0, "id"))
	for _, kernel := range []struct {
		name string
		join func() []joinedRow
	}{
		{"stack", func() []joinedRow { return stackStructuralJoin(l, lid, r, rid, false, nil) }},
		{"nestedloop", func() []joinedRow { return nestedLoopStructuralJoin(l, lid, r, rid, false) }},
	} {
		b.Run(kernel.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(kernel.join()) == 0 {
					b.Fatal("empty join result")
				}
			}
		})
	}
}

func TestEndToEndOuterJoin(t *testing.T) {
	// The query's mail is optional, but the views store items and mails
	// separately: only an outer structural join can produce the ⊥ tuples.
	n := checkScenario(t,
		`site(item(name "pen" mail "m1") item(name "ink") item(name "dry" mail "m2"))`,
		`site(/item[id](?//mail[id,v]))`,
		v("vi", `site(//item[id])`),
		v("vm", `site(//mail[id,v])`))
	if n == 0 {
		t.Fatal("no outer join rewriting")
	}
}

func TestEndToEndOuterJoinChain(t *testing.T) {
	// Deeper chain on the right side: probe must be the exact child chain.
	checkScenario(t,
		`r(a(b(c "1")) a(b) a)`,
		`r(/a[id](?/b(/c[id,v])))`,
		v("va", `r(/a[id])`),
		v("vc", `r(/a/b/c[id,v])`))
}
