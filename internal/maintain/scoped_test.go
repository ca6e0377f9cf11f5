package maintain_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nrel"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// computeChecked runs one batch and asserts every delta's New extent is
// tuple-identical to a from-scratch rematerialization of the updated
// document; it returns the batch for shape assertions.
func computeChecked(t *testing.T, doc *xmltree.Document, views []*core.View, ups ...xmltree.Update) *maintain.Batch {
	t.Helper()
	batch := compute(t, doc, views, ups...)
	newByView := map[string]*nrel.Relation{}
	for _, d := range batch.Deltas {
		newByView[d.View.Name] = d.New
	}
	for _, v := range views {
		want := view.MaterializeFlat(v, doc)
		got, ok := newByView[v.Name]
		if !ok {
			got = maintain.SortByKey(view.MaterializeFlat(v, doc)) // unchanged: recompute for comparison
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("view %s extent diverges from rebuild\nmaintained:\n%s\nrebuild:\n%s",
				v.Name, got.Sorted(), want.Sorted())
		}
	}
	return batch
}

// TestScopedFastPathTaken: a chain view with a required id takes the
// scoped path, and the spliced extent matches a rebuild.
func TestScopedFastPathTaken(t *testing.T) {
	doc := xmltree.MustParseParen(
		`site(region(item(name "pen") item(name "ink")) region(item(name "pad")))`)
	v := mkView("v", `site(//item[id](/name[v]))`)
	target := doc.Root.Children[0].Children[0].Children[0] // first name
	batch := computeChecked(t, doc, []*core.View{v},
		xmltree.Update{Kind: xmltree.UpdateSetValue, Target: target.ID, Value: "pencil"})
	if batch.Scoped != 1 {
		t.Fatalf("Scoped = %d, want 1 (fast path not taken)", batch.Scoped)
	}
	if len(batch.Deltas) != 1 || batch.Deltas[0].Adds.Len() != 1 || batch.Deltas[0].Dels.Len() != 1 {
		t.Fatalf("unexpected delta shape: %+v", batch.Deltas)
	}
}

// TestScopedDuplicateValueAcrossBoundary: two sibling names carry the same
// value; retexting one must keep the row alive (the sibling embedding is
// outside the retexted node's subtree but inside the widened witness
// scope).
func TestScopedDuplicateValueAcrossBoundary(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen" name "pen"))`)
	v := mkView("v", `site(/item[id](/name[v]))`)
	n1 := doc.Root.Children[0].Children[0]
	batch := computeChecked(t, doc, []*core.View{v},
		xmltree.Update{Kind: xmltree.UpdateSetValue, Target: n1.ID, Value: "ink"})
	if batch.Scoped != 1 {
		t.Fatalf("Scoped = %d, want 1", batch.Scoped)
	}
	d := batch.Deltas[0]
	// (item,"pen") survives via the second name; only (item,"ink") is added.
	if d.Adds.Len() != 1 || d.Dels.Len() != 0 {
		t.Fatalf("adds %d dels %d, want 1/0\nadds:\n%s\ndels:\n%s", d.Adds.Len(), d.Dels.Len(), d.Adds, d.Dels)
	}
}

// TestScopedContentAboveWitness: a content column stored above the witness
// fans a deep change out to every row under the content binding; the scope
// must hoist to it.
func TestScopedContentAboveWitness(t *testing.T) {
	doc := xmltree.MustParseParen(
		`site(people(person(name "ann") person(name "bob")))`)
	v := mkView("v", `site(/people[c](/person[id]))`)
	deep := doc.Root.Children[0].Children[0].Children[0] // ann's name
	batch := computeChecked(t, doc, []*core.View{v},
		xmltree.Update{Kind: xmltree.UpdateSetValue, Target: deep.ID, Value: "anne"})
	if batch.Scoped != 1 {
		t.Fatalf("Scoped = %d, want 1", batch.Scoped)
	}
	// Every row's C column changed: 2 dels + 2 adds.
	d := batch.Deltas[0]
	if d.Adds.Len() != 2 || d.Dels.Len() != 2 {
		t.Fatalf("adds %d dels %d, want 2/2 (content fan-out missed)", d.Adds.Len(), d.Dels.Len())
	}
}

// TestScopedOptionalFlip: optional edges below the witness flip between ⊥
// and bound on the scoped path too.
func TestScopedOptionalFlip(t *testing.T) {
	doc := xmltree.MustParseParen(`site(person(name "ann") person(name "bob" phone "1"))`)
	v := mkView("v", `site(/person[id](?/phone[v]))`)
	p1 := doc.Root.Children[0]
	batch := computeChecked(t, doc, []*core.View{v},
		ins(p1.ID.String(), "", `phone "2"`))
	if batch.Scoped != 1 {
		t.Fatalf("Scoped = %d, want 1", batch.Scoped)
	}
	d := batch.Deltas[0]
	if d.Adds.Len() != 1 || d.Dels.Len() != 1 {
		t.Fatalf("adds %d dels %d, want 1/1 (⊥ retraction missed)", d.Adds.Len(), d.Dels.Len())
	}
}

// TestScopedFallbackMultiBranch: a branching pattern is not scoped-
// diffable and must fall back to full recomputation — still correct.
func TestScopedFallbackMultiBranch(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen" price "3"))`)
	v := mkView("v", `site(/item[id](/name[v] /price[v]))`)
	batch := computeChecked(t, doc, []*core.View{v},
		ins("1", "", `item(name "ink" price "7")`))
	if batch.Scoped != 0 {
		t.Fatalf("Scoped = %d, want 0 (multi-branch must fall back)", batch.Scoped)
	}
	if len(batch.Deltas) != 1 || batch.Deltas[0].Adds.Len() != 1 {
		t.Fatalf("unexpected delta: %+v", batch.Deltas)
	}
}

// TestScopedNoIDFallback: a chain view storing no identifier has no
// witness and must fall back.
func TestScopedNoIDFallback(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen"))`)
	v := mkView("v", `site(//name[v])`)
	batch := computeChecked(t, doc, []*core.View{v},
		ins("1", "", `item(name "pen")`)) // duplicate value: extent unchanged
	if batch.Scoped != 0 {
		t.Fatalf("Scoped = %d, want 0", batch.Scoped)
	}
	if len(batch.Deltas) != 0 {
		t.Fatalf("set semantics violated: %+v", batch.Deltas[0].Adds)
	}
}

// TestScopedRenameSubtree: renaming an interior node moves whole-subtree
// rows between shapes on the scoped path.
func TestScopedRenameSubtree(t *testing.T) {
	doc := xmltree.MustParseParen(
		`site(region(item(name "pen")) region(item(name "ink")))`)
	v := mkView("v", `site(//item[id](/name[v]))`)
	r1 := doc.Root.Children[0]
	batch := computeChecked(t, doc, []*core.View{v},
		xmltree.Update{Kind: xmltree.UpdateRename, Target: r1.ID, Label: "zone"})
	if batch.Scoped != 1 {
		t.Fatalf("Scoped = %d, want 1", batch.Scoped)
	}
	// //item still matches under the renamed region, so nothing changes.
	if len(batch.Deltas) != 0 {
		t.Fatalf("rename under // should not change the extent: %+v", batch.Deltas)
	}

	// Renaming the item itself retracts its row.
	item := r1.Children[0]
	batch = computeChecked(t, doc, []*core.View{v},
		xmltree.Update{Kind: xmltree.UpdateRename, Target: item.ID, Label: "gadget"})
	if len(batch.Deltas) != 1 || batch.Deltas[0].Dels.Len() != 1 || batch.Deltas[0].Adds.Len() != 0 {
		t.Fatalf("rename of item should retract one row: %+v", batch.Deltas)
	}
}

// TestScopedMultiUpdateBatchNets: within one batch, an insert followed by
// a delete of the same subtree must net out to no delta.
func TestScopedMultiUpdateBatchNets(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen"))`)
	v := mkView("v", `site(//item[id](/name[v]))`)
	st := view.NewStore(doc, []*core.View{v})
	batch, err := st.ApplyUpdates(context.Background(), []xmltree.Update{
		{Kind: xmltree.UpdateInsert, Parent: doc.Root.ID, Subtree: xmltree.MustParseParen(`item(name "ink")`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	inserted := doc.Root.Children[len(doc.Root.Children)-1]
	batch, err = st.ApplyUpdates(context.Background(), []xmltree.Update{
		{Kind: xmltree.UpdateSetValue, Target: inserted.Children[0].ID, Value: "dye"},
		{Kind: xmltree.UpdateDelete, Target: inserted.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Deltas) != 1 {
		t.Fatalf("deltas = %d, want 1 (the ink row leaves)", len(batch.Deltas))
	}
	d := batch.Deltas[0]
	if d.Adds.Len() != 0 || d.Dels.Len() != 1 {
		t.Fatalf("netting failed: adds %d dels %d\nadds:\n%s\ndels:\n%s", d.Adds.Len(), d.Dels.Len(), d.Adds, d.Dels)
	}
	if want := view.MaterializeFlat(v, doc); !d.New.EqualAsSet(want) {
		t.Fatalf("final extent diverges:\n%s\nwant:\n%s", d.New.Sorted(), want.Sorted())
	}
}

// TestScopedRandomParity drives random batches through a store whose views
// are all scoped-diffable and cross-checks extents against rebuilds — a
// focused differential for the fast path (the broader oracle in
// internal/view covers mixed fast/fallback stores).
func TestScopedRandomParity(t *testing.T) {
	labels := []string{"region", "item", "name", "price", "note"}
	views := []*core.View{
		mkView("vitem", `site(//item[id](/name[v]))`),
		mkView("vprice", `site(//price[id,v])`),
		mkView("vnote", `site(//item[id,c])`),
		mkView("vopt", `site(//item[id](?/note[v]))`),
	}
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(400 + seed))
		doc := xmltree.MustParseParen(
			`site(region(item(name "a" price "1") item(name "b")) region(item(name "a" note "n")))`)
		st := view.NewStore(doc, views)
		for round := 0; round < 60; round++ {
			nodes := doc.Nodes()
			n := nodes[r.Intn(len(nodes))]
			var u xmltree.Update
			switch r.Intn(4) {
			case 0:
				sub := xmltree.NewDocument(labels[r.Intn(len(labels))])
				sub.Root.Value = fmt.Sprintf("s%d", round)
				if r.Intn(2) == 0 {
					sub.Root.AddChild(labels[r.Intn(len(labels))], "a")
				}
				u = xmltree.Update{Kind: xmltree.UpdateInsert, Parent: n.ID, Subtree: sub}
			case 1:
				if n.Parent == nil || doc.Size() < 5 {
					continue
				}
				u = xmltree.Update{Kind: xmltree.UpdateDelete, Target: n.ID}
			case 2:
				if n.Parent == nil {
					continue
				}
				u = xmltree.Update{Kind: xmltree.UpdateRename, Target: n.ID, Label: labels[r.Intn(len(labels))]}
			default:
				u = xmltree.Update{Kind: xmltree.UpdateSetValue, Target: n.ID, Value: fmt.Sprintf("t%d", r.Intn(4))}
			}
			if _, err := st.ApplyUpdates(context.Background(), []xmltree.Update{u}); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			for _, v := range views {
				want := view.MaterializeFlat(v, doc)
				if got := st.Relation(v).Clone(); !got.EqualAsSet(want) {
					t.Fatalf("seed %d round %d (%v): %s diverged\nmaintained:\n%s\nrebuild:\n%s",
						seed, round, u.Kind, v.Name, got.Sorted(), want.Sorted())
				}
			}
		}
	}
}
