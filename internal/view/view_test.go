package view

import (
	"context"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/xmltree"
)

func TestMaterializeRunningExample(t *testing.T) {
	// Figure 1(c): V1 produces one tuple per item, with ⊥ where the
	// optional part is missing.
	doc := xmltree.MustParseParen(`site(regions(
		item(name "pen" description(parlist(listitem(bold "gold plated"))))
		item(name "ink" description(parlist(listitem)))
		item(name "dry")))`)
	v1 := &core.View{Name: "V1", Pattern: pattern.MustParse(
		`site(//item[id](?//listitem[id](?//bold[v])))`)}
	rel := Materialize(v1, doc)
	if rel.Len() != 3 {
		t.Fatalf("V1 rows = %d, want 3\n%s", rel.Len(), rel)
	}
	bottoms := 0
	for _, row := range rel.Rows {
		if row[1].IsNull() {
			bottoms++
		}
	}
	if bottoms != 1 {
		t.Fatalf("⊥ listitem rows = %d, want 1\n%s", bottoms, rel.Sorted())
	}
}

func TestMaterializeFlatColumns(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1" (c "x" c "y"))`)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[id](n/c[v]))`)}
	flat := MaterializeFlat(v, doc)
	if len(flat.Cols) != 2 || flat.Cols[0] != "s0.id" || flat.Cols[1] != "s1.v" {
		t.Fatalf("cols = %v", flat.Cols)
	}
	if flat.Len() != 2 {
		t.Fatalf("flat rows = %d, want 2 (nested edges unnested)", flat.Len())
	}
}

func TestStoreCachesAndMaterializesOnDemand(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1")`)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[id,v])`)}
	st := NewStore(doc, []*core.View{v})
	if !st.Has("v") {
		t.Fatal("store should have materialized v")
	}
	r1 := st.Relation(v)
	r2 := st.Relation(v)
	if r1 != r2 {
		t.Fatal("store should cache")
	}
	other := &core.View{Name: "w", Pattern: pattern.MustParse(`a(/b[v])`)}
	if st.Relation(other).Len() != 1 {
		t.Fatal("on-demand materialization failed")
	}
	if st.Document() != doc {
		t.Fatal("Document accessor wrong")
	}
}

func TestSlotCol(t *testing.T) {
	if SlotCol(3, "id") != "s3.id" {
		t.Fatal("SlotCol format changed")
	}
}

func TestSnapshotFreezesExtents(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1")`)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[v])`), DerivableParentIDs: true}
	st := NewStore(doc, []*core.View{v})
	snap := st.Snapshot()
	if snap.Epoch() != 0 {
		t.Fatalf("snapshot epoch %d", snap.Epoch())
	}
	if _, err := st.ApplyUpdates(context.Background(), []xmltree.Update{
		{Kind: xmltree.UpdateInsert, Parent: doc.Root.ID, Subtree: xmltree.MustParseParen(`b "2"`)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Relation(v).Len(); got != 1 {
		t.Fatalf("snapshot saw the update: %d rows", got)
	}
	if got := st.Relation(v).Len(); got != 2 {
		t.Fatalf("live store missed the update: %d rows", got)
	}
	if snap.Epoch() != 0 || st.Epoch() != 1 {
		t.Fatalf("epochs: snap %d live %d", snap.Epoch(), st.Epoch())
	}
}
