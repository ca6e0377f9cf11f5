package maintain_test

import (
	"strings"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

func mkView(name, pat string) *core.View {
	return &core.View{Name: name, Pattern: pattern.MustParse(pat), DerivableParentIDs: true}
}

// compute runs one batch over a fresh extent snapshot and sanity-checks
// that the old extents minus the deleted rows plus the added ones are the
// recomputed extents.
func compute(t *testing.T, doc *xmltree.Document, views []*core.View, ups ...xmltree.Update) *maintain.Batch {
	t.Helper()
	old := map[string]*nrel.Relation{}
	for _, v := range views {
		old[v.Name] = maintain.SortByKey(view.MaterializeFlat(v, doc))
	}
	batch, err := maintain.ComputeDeltas(doc, views, ups,
		func(v *core.View) *nrel.Relation { return old[v.Name] },
		maintain.Engine{Mat: view.MaterializeFlat, MatScoped: view.MaterializeFlatScoped, SortedExtents: true})
	if err != nil {
		t.Fatalf("ComputeDeltas: %v", err)
	}
	key := func(row nrel.Tuple) string {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.Render())
			b.WriteByte(0)
		}
		return b.String()
	}
	for _, d := range batch.Deltas {
		gone := map[string]bool{}
		for _, row := range d.Dels.Rows {
			gone[key(row)] = true
		}
		folded := nrel.NewRelation(d.New.Cols...)
		for _, row := range old[d.View.Name].Rows {
			if !gone[key(row)] {
				folded.Rows = append(folded.Rows, row)
			}
		}
		folded.Rows = append(folded.Rows, d.Adds.Rows...)
		if !folded.EqualAsSet(d.New) {
			t.Fatalf("view %s: folded delta diverges from recomputed extent\nfolded:\n%s\nnew:\n%s",
				d.View.Name, folded.Sorted(), d.New.Sorted())
		}
	}
	return batch
}

func ins(parent, before, sub string) xmltree.Update {
	u := xmltree.Update{Kind: xmltree.UpdateInsert, Subtree: xmltree.MustParseParen(sub)}
	u.Parent = mustID(parent)
	u.Before = mustID(before)
	return u
}

func mustID(s string) (id []uint32) {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ".")
	for _, p := range parts {
		var v uint32
		for i := 0; i < len(p); i++ {
			v = v*10 + uint32(p[i]-'0')
		}
		id = append(id, v)
	}
	return id
}

func TestInsertProducesAdds(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen"))`)
	vName := mkView("vname", `site(/item[id](/name[v]))`)
	vOther := mkView("vother", `site(/person[id])`)
	batch := compute(t, doc, []*core.View{vName, vOther},
		ins("1", "", `item(name "ink")`))
	if len(batch.Deltas) != 1 || batch.Deltas[0].View != vName {
		t.Fatalf("deltas = %v, want exactly vname", batch.Deltas)
	}
	d := batch.Deltas[0]
	if d.Adds.Len() != 1 || d.Dels.Len() != 0 {
		t.Fatalf("adds %d dels %d, want 1/0:\n%s%s", d.Adds.Len(), d.Dels.Len(), d.Adds, d.Dels)
	}
	if len(batch.Skipped) != 1 || batch.Skipped[0] != "vother" {
		t.Fatalf("skipped = %v, want [vother]", batch.Skipped)
	}
}

func TestOptionalEdgeRetraction(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b)`)
	v := mkView("v", `a(/b[id](?/c[v]))`)
	// Before: one row (id_b, ⊥). Inserting c must retract it.
	batch := compute(t, doc, []*core.View{v}, ins("1.1", "", `c "7"`))
	if len(batch.Deltas) != 1 {
		t.Fatalf("no delta for optional flip")
	}
	d := batch.Deltas[0]
	if d.Dels.Len() != 1 || d.Adds.Len() != 1 {
		t.Fatalf("adds %d dels %d, want 1/1\nadds:\n%s\ndels:\n%s", d.Adds.Len(), d.Dels.Len(), d.Adds, d.Dels)
	}
	if got := d.Dels.Rows[0][1].Render(); got != "⊥" {
		t.Fatalf("retracted row should carry ⊥, got %s", got)
	}
	if got := d.Adds.Rows[0][1].Render(); got != "7" {
		t.Fatalf("added row should carry the new value, got %s", got)
	}

	// And deleting c resurrects the ⊥ row.
	c := doc.Root.Children[0].Children[0]
	batch = compute(t, doc, []*core.View{v}, xmltree.Update{Kind: xmltree.UpdateDelete, Target: c.ID})
	d = batch.Deltas[0]
	if d.Adds.Len() != 1 || d.Adds.Rows[0][1].Render() != "⊥" {
		t.Fatalf("⊥ row not resurrected:\n%s", d.Adds)
	}
}

func TestSetSemanticsSurvivesLosingOneEmbedding(t *testing.T) {
	// Two b nodes carry the same value; deleting one must not remove the
	// tuple (the other embedding still derives it).
	doc := xmltree.MustParseParen(`a(b "x" b "x")`)
	v := mkView("v", `a(/b[v])`)
	b1 := doc.Root.Children[0]
	batch := compute(t, doc, []*core.View{v}, xmltree.Update{Kind: xmltree.UpdateDelete, Target: b1.ID})
	if len(batch.Deltas) != 0 {
		t.Fatalf("extent should be unchanged, got deltas %v (adds %d dels %d)",
			batch.Deltas[0].View.Name, batch.Deltas[0].Adds.Len(), batch.Deltas[0].Dels.Len())
	}
}

func TestContentColumnTracksAncestorChange(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b(d "x"))`)
	v := mkView("v", `a(/b[id,c])`)
	// Inserting below b changes b's stored content subtree.
	batch := compute(t, doc, []*core.View{v}, ins("1.1", "", `e "y"`))
	if len(batch.Deltas) != 1 {
		t.Fatal("content view not maintained on descendant insert")
	}
	d := batch.Deltas[0]
	if d.Dels.Len() != 1 || d.Adds.Len() != 1 {
		t.Fatalf("adds %d dels %d, want 1/1", d.Adds.Len(), d.Dels.Len())
	}
	if got := d.Adds.Rows[0][1].Render(); !strings.Contains(got, "e \"y\"") {
		t.Fatalf("new content row lacks inserted node: %s", got)
	}

	// A settext below b also changes content even though no node is
	// added or removed.
	dnode := doc.Root.Children[0].Children[0]
	batch = compute(t, doc, []*core.View{v}, xmltree.Update{Kind: xmltree.UpdateSetValue, Target: dnode.ID, Value: "z"})
	if len(batch.Deltas) != 1 {
		t.Fatal("content view not maintained on descendant settext")
	}
}

func TestRenameAffectsOldAndNewShape(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1" c "2")`)
	vb := mkView("vb", `a(/b[v])`)
	vc := mkView("vc", `a(/c[v])`)
	b := doc.Root.Children[0]
	batch := compute(t, doc, []*core.View{vb, vc}, xmltree.Update{Kind: xmltree.UpdateRename, Target: b.ID, Label: "c"})
	if len(batch.Deltas) != 2 {
		t.Fatalf("rename should touch both views, got %d deltas", len(batch.Deltas))
	}
}

func TestRollbackOnFailedBatch(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1")`)
	before := doc.Root.String()
	v := mkView("v", `a(/b[v])`)
	old := maintain.SortByKey(view.MaterializeFlat(v, doc))
	_, err := maintain.ComputeDeltas(doc, []*core.View{v},
		[]xmltree.Update{
			ins("1", "", `b "2"`),
			{Kind: xmltree.UpdateDelete, Target: mustID("1.9")}, // missing target
		},
		func(*core.View) *nrel.Relation { return old },
		maintain.Engine{Mat: view.MaterializeFlat, MatScoped: view.MaterializeFlatScoped, SortedExtents: true})
	if err == nil {
		t.Fatal("failed batch reported success")
	}
	if got := doc.Root.String(); got != before {
		t.Fatalf("document not rolled back: %s != %s", got, before)
	}
}

func TestSummaryRebuiltAfterBatch(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b)`)
	v := mkView("v", `a(/b[id])`)
	old := maintain.SortByKey(view.MaterializeFlat(v, doc))
	batch, err := maintain.ComputeDeltas(doc, []*core.View{v},
		[]xmltree.Update{ins("1.1", "", `newlabel "x"`)},
		func(*core.View) *nrel.Relation { return old },
		maintain.Engine{Mat: view.MaterializeFlat, MatScoped: view.MaterializeFlatScoped, SortedExtents: true})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Summary.FindPath("/a/b/newlabel") < 0 {
		t.Fatalf("summary missing inserted path:\n%s", batch.Summary)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	doc := xmltree.MustParseParen(`a`)
	if _, err := maintain.ComputeDeltas(doc, nil, nil, nil, maintain.Engine{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}
