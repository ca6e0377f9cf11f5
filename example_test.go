package xmlviews_test

import (
	"fmt"

	"xmlviews"
	"xmlviews/internal/datagen"
)

// The quickstart: parse a document, build its summary, define a
// materialized view, rewrite a query over it, and execute the plan — the
// paper's whole pipeline.
func Example_quickstart() {
	doc, err := xmlviews.ParseXMLString(`<site>
  <regions><asia>
    <item id="i1"><name>fountain pen</name><price>30</price></item>
    <item id="i2"><name>ink bottle</name><price>8</price></item>
    <item id="i3"><name>gold nib</name><price>120</price></item>
  </asia></regions>
</site>`)
	if err != nil {
		panic(err)
	}
	s := xmlviews.BuildSummary(doc)
	fmt.Printf("summary: %d nodes (paths), %s\n", s.Size(), s)

	// The view stores every item with its name and price.
	v := xmlviews.NewView("items",
		xmlviews.MustParsePattern(`site(//item[id](/name[v] /price[v]))`))

	// The query asks for names of items above a price; the rewriter must
	// discover that the view suffices, adding a selection.
	q := xmlviews.MustParsePattern(`site(//item[id](/name[v] /price{v>20}))`)
	res, err := xmlviews.Rewrite(q, []*xmlviews.View{v}, s)
	if err != nil {
		panic(err)
	}
	fmt.Println("rewriting:", res.Rewritings[0])

	store := xmlviews.NewStore(doc, []*xmlviews.View{v})
	out, err := xmlviews.Execute(res.Rewritings[0], store)
	if err != nil {
		panic(err)
	}
	fmt.Print(out.Rel.Sorted())

	// Cross-check against direct evaluation on the document.
	direct := xmlviews.EvalPattern(q, doc)
	fmt.Printf("direct evaluation returns %d rows — plan returned %d\n", direct.Len(), out.Rel.Len())
	// Output:
	// summary: 7 nodes (paths), site(=regions(=asia(!item(=@id =name =price))))
	// rewriting: π[1,2](σ[3.V: v>20](items))
	// s0.id | s1.v
	// 1.1.1.1 | fountain pen
	// 1.1.1.5 | gold nib
	// direct evaluation returns 2 rows — plan returned 2
}

// XQuery to pattern: the paper's Section 1 XQuery becomes an extended tree
// pattern, whose canonical model is taken under an XMark summary; then the
// containment engine judges two of the introduction's observations on
// that summary.
func Example_xquery2pattern() {
	q, err := xmlviews.TranslateXQuery(`
for $x in doc("XMark.xml")//item[//mail] return
  <res> {$x/name/text(),
         for $y in $x//listitem return <key> {$y//keyword} </key>} </res>`, "site")
	if err != nil {
		panic(err)
	}
	fmt.Println("translated pattern:", q)

	doc := datagen.XMark(4, 7)
	s := xmlviews.BuildSummary(doc)
	model, err := xmlviews.CanonicalModel(q, s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("canonical model under the XMark summary (|S|=%d): %d trees\n", s.Size(), len(model))

	// Observation 2 claims every item keyword lies under a listitem. In
	// this corpus keywords also occur in an item's description text and
	// mailbox, outside any listitem, so the engine answers false.
	kw := xmlviews.MustParsePattern(`site(/regions(//item(//keyword[id])))`)
	viaListitem := xmlviews.MustParsePattern(`site(/regions(//item(//listitem(//keyword[id]))))`)
	ok, err := xmlviews.Equivalent(kw, viaListitem, s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("all item keywords reachable via listitems: %v\n", ok)

	// Observation 3 compares //item//listitem with
	// //*/description/parlist/listitem. Here listitems nest
	// (listitem/parlist/listitem), and the nested ones match only the
	// first path, so the summary proves the two different.
	li1 := xmlviews.MustParsePattern(`site(/regions(//item(//listitem[id])))`)
	li2 := xmlviews.MustParsePattern(`site(/regions(//*(/description/parlist/listitem[id])))`)
	eq, err := xmlviews.Equivalent(li1, li2, s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("listitem paths equivalent under the Dataguide: %v\n", eq)

	rel := xmlviews.EvalPattern(q, doc)
	fmt.Printf("query result: %d items\n", rel.Len())
	// Output:
	// translated pattern: site(//item[id](//mail n?/name[v] n?//listitem[id](n?//keyword[c])))
	// canonical model under the XMark summary (|S|=304): 31 trees
	// all item keywords reachable via listitems: false
	// listitem paths equivalent under the Dataguide: false
	// query result: 15 items
}

// The auction: the paper's running example (Section 1, Figure 1). Two
// materialized views over an XMark-like auction document — V1 stores item
// IDs with their nested, optional listitem content; V2 stores item names —
// jointly rewrite a query that no view answers alone, combined by a
// structural-ID join. Then the summary-based optimization: every item has
// a description (a strong edge), so the query's description condition
// costs nothing.
func Example_auction() {
	doc := datagen.XMark(2, 2006)
	s := xmlviews.BuildSummary(doc)
	ns, n1 := s.Stats()
	fmt.Printf("XMark document: %d nodes; summary %d nodes, %d strong, %d one-to-one edges\n",
		doc.Size(), s.Size(), ns, n1)

	v1 := xmlviews.NewView("V1", xmlviews.MustParsePattern(`site(//item[id](?//listitem[id]))`))
	v2 := xmlviews.NewView("V2", xmlviews.MustParsePattern(`site(//item[id](/name[v]))`))

	// The intro query (simplified): every item with its name and its
	// listitems when present.
	q := xmlviews.MustParsePattern(`site(//item[id](/name[v] ?//listitem[id]))`)
	opts := xmlviews.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 2
	opts.MaxResults = 3
	opts.MaxExplored = 2000
	res, err := xmlviews.RewriteWith(q, []*xmlviews.View{v1, v2}, s, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rewritings found: %d (views kept %d/%d)\n", len(res.Rewritings), res.ViewsKept, res.ViewsTotal)
	for i, p := range res.Rewritings {
		fmt.Printf("  %d: %s\n", i+1, p)
	}

	store := xmlviews.NewStore(doc, []*xmlviews.View{v1, v2})
	out, err := xmlviews.Execute(res.Rewritings[0], store)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan result: %d rows; first rows:\n", out.Rel.Len())
	for _, row := range out.Rel.Sorted().Rows[:5] {
		fmt.Println(" ", row[0].Render(), "|", row[1].Render(), "|", row[2].Render())
	}

	// V2 has no description condition, yet it rewrites a query that
	// requires one.
	q2 := xmlviews.MustParsePattern(`site(//item[id](/name[v] /description))`)
	opts2 := xmlviews.DefaultRewriteOptions()
	opts2.FirstOnly = true
	res2, err := xmlviews.RewriteWith(q2, []*xmlviews.View{v2}, s, opts2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("query with a /description condition rewritten by V2 alone: %v\n", len(res2.Rewritings) > 0)
	// Output:
	// XMark document: 547 nodes; summary 292 nodes, 243 strong, 219 one-to-one edges
	// rewritings found: 1 (views kept 2/2)
	//   1: π[1,2,5]((V2 ⋈=[1=1] V1))
	// plan result: 27 rows; first rows:
	//   1.1.1.1 | plated boxed | 1.1.1.1.11.1.1
	//   1.1.1.1 | plated boxed | 1.1.1.1.11.1.3
	//   1.1.1.1 | plated boxed | 1.1.1.1.11.1.3.1.1
	//   1.1.1.3 | gold Invincia | 1.1.1.3.11.1.1
	//   1.1.1.3 | gold Invincia | 1.1.1.3.11.1.1.1.1
	// query with a /description condition rewritten by V2 alone: true
}

// DBLP: the bibliography scenario — containment with value predicates
// (Section 4.2), union containment, and a rewriting that needs a union of
// views (Algorithm 1, lines 13-14).
func Example_dblp() {
	doc := datagen.DBLP(6, 42, true)
	s := xmlviews.BuildSummary(doc)
	fmt.Printf("DBLP document: %d nodes; summary %d nodes\n", doc.Size(), s.Size())

	// 1998 papers are covered by the union of pre-2000 and post-2002
	// papers, but not by the post-2002 ones alone.
	q98 := xmlviews.MustParsePattern(`dblp(/article[id](/year{v=1998}))`)
	old := xmlviews.MustParsePattern(`dblp(/article[id](/year{v<2000}))`)
	recent := xmlviews.MustParsePattern(`dblp(/article[id](/year{v>2002}))`)
	ok, err := xmlviews.ContainedInUnion(q98, []*xmlviews.Pattern{old, recent}, s)
	if err != nil {
		panic(err)
	}
	alone, err := xmlviews.Contained(q98, recent, s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("1998 articles ⊆ (pre-2000 ∪ post-2002): %v; ⊆ post-2002 alone: %v\n", ok, alone)

	// Every article has exactly one year (a one-to-one edge in the
	// summary), so two views that split the articles by year answer a
	// query over all articles only together, as a union.
	q := xmlviews.MustParsePattern(`dblp(/article[id](/title[v]))`)
	views := []*xmlviews.View{
		xmlviews.NewView("v_old", xmlviews.MustParsePattern(`dblp(/article[id](/title[v] /year{v<2000}))`)),
		xmlviews.NewView("v_new", xmlviews.MustParsePattern(`dblp(/article[id](/title[v] /year{v>=2000}))`)),
	}
	res, err := xmlviews.Rewrite(q, views, s)
	if err != nil {
		panic(err)
	}
	fmt.Println("plan:", res.Rewritings[0])
	out, err := xmlviews.Execute(res.Rewritings[0], xmlviews.NewStore(doc, views))
	if err != nil {
		panic(err)
	}
	direct := xmlviews.EvalPattern(q, doc)
	fmt.Printf("plan rows: %d; direct evaluation rows: %d\n", out.Rel.Len(), direct.Len())
	// Output:
	// DBLP document: 375 nodes; summary 62 nodes
	// 1998 articles ⊆ (pre-2000 ∪ post-2002): true; ⊆ post-2002 alone: false
	// plan: (π[1,2](v_old) ∪ π[1,2](v_new))
	// plan rows: 8; direct evaluation rows: 8
}
