package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// randomVecDoc grows a random document over a small label vocabulary, so
// selections hit duplicate labels and the dictionaries get reuse.
func randomVecDoc(rng *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	d := xmltree.NewDocument("r")
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		if depth <= 0 {
			return
		}
		for i := rng.Intn(8); i > 0; i-- {
			c := n.AddChild(labels[rng.Intn(len(labels))], fmt.Sprintf("%d", rng.Intn(10)))
			grow(c, depth-1)
		}
	}
	grow(d.Root, 3)
	return d
}

// rowPath hides the store's columnar block handles, so every operator
// takes the row-at-a-time fallback — the one navigation views, which have
// no block handle, always take.
type rowPath struct{ Reader }

func (rowPath) Blocks(*core.View) *store.Blocks { return nil }

// assertByteIdentical fails unless the two results agree exactly: same
// columns, same row order, same rendered value per cell. This is stronger
// than set equality — the vectorized path must not even reorder rows.
func assertByteIdentical(t *testing.T, vec, row *Result) {
	t.Helper()
	if len(vec.Rel.Cols) != len(row.Rel.Cols) {
		t.Fatalf("columns differ: %v vs %v", vec.Rel.Cols, row.Rel.Cols)
	}
	for i, c := range row.Rel.Cols {
		if vec.Rel.Cols[i] != c {
			t.Fatalf("column %d: %q vs %q", i, vec.Rel.Cols[i], c)
		}
	}
	if vec.Rel.Len() != row.Rel.Len() {
		t.Fatalf("row counts differ: %d vs %d", vec.Rel.Len(), row.Rel.Len())
	}
	for i := range row.Rel.Rows {
		for j := range row.Rel.Rows[i] {
			vr, rr := vec.Rel.Rows[i][j].Render(), row.Rel.Rows[i][j].Render()
			if vr != rr {
				t.Fatalf("row %d col %d: %q vs %q", i, j, vr, rr)
			}
		}
	}
}

// TestVectorizedSelectMatchesRowPath is the equivalence property for the
// selection kernels: over random documents and random selection chains,
// vectorized and row-at-a-time execution produce byte-identical results.
func TestVectorizedSelectMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	all := &core.View{Name: "all", Pattern: pattern.MustParse(`r(//*[id,l,v])`)}
	sawVectorized := false
	for trial := 0; trial < 60; trial++ {
		st := view.NewStore(randomVecDoc(rng), []*core.View{all})
		plan := core.Scan(all)
		// A chain of 1-3 random selections; "zz" never occurs, so the
		// empty-result edge is covered too.
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if rng.Intn(2) == 0 {
				lbl := []string{"a", "b", "c", "d", "zz"}[rng.Intn(5)]
				plan = &core.Plan{Op: core.OpSelectLabel, Input: plan, Slot: 0, Label: lbl}
			} else {
				f := []string{"v>5", "v=3", "v<2 | v>7", "false"}[rng.Intn(4)]
				plan = &core.Plan{Op: core.OpSelectValue, Input: plan, Slot: 0, Pred: predicate.MustParse(f)}
			}
		}
		var xs ExecStats
		vec, err := ExecuteWith(plan, st, Options{Stats: &xs})
		if err != nil {
			t.Fatalf("trial %d vectorized: %v", trial, err)
		}
		row, err := Execute(plan, rowPath{st})
		if err != nil {
			t.Fatalf("trial %d row path: %v", trial, err)
		}
		assertByteIdentical(t, vec, row)
		if xs.Vectorized() {
			sawVectorized = true
		}
	}
	if !sawVectorized {
		t.Fatal("no trial took the vectorized path; the property test is vacuous")
	}
}

// TestVectorizedJoinMatchesRowPath is the same property for structural
// joins: zone-map pruning of the descendant-side scan must not change the
// join result, order included.
func TestVectorizedJoinMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	va := &core.View{Name: "va", Pattern: pattern.MustParse(`r(//a[id])`)}
	vb := &core.View{Name: "vb", Pattern: pattern.MustParse(`r(//b[id,v])`)}
	sawPrune := false
	for trial := 0; trial < 40; trial++ {
		st := view.NewStore(randomVecDoc(rng), []*core.View{va, vb})
		for _, kind := range []core.JoinKind{core.JoinAncestor, core.JoinParent} {
			plan := core.NewJoin(kind, false, core.Scan(va), 0, core.Scan(vb), 0)
			var xs ExecStats
			vec, err := ExecuteWith(plan, st, Options{Stats: &xs})
			if err != nil {
				t.Fatalf("trial %d vectorized: %v", trial, err)
			}
			row, err := Execute(plan, rowPath{st})
			if err != nil {
				t.Fatalf("trial %d row path: %v", trial, err)
			}
			assertByteIdentical(t, vec, row)
			if xs.VecJoinPrunes > 0 {
				sawPrune = true
			}
		}
	}
	if !sawPrune {
		t.Fatal("no trial pruned a join scan; the property test is vacuous")
	}
}

// TestVectorizedMatchesRowPathPreparedViews runs real rewritings — whose
// scans reference prepared views with virtual ID slots, the shape the
// daemon executes — on both paths and requires byte-identical results.
func TestVectorizedMatchesRowPathPreparedViews(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b(c "1") b(c "7") b(c "9") b(d "2"))`)
	s := summary.Build(doc)
	views := []*core.View{
		{Name: "vc", Pattern: pattern.MustParse(`a(/b(/c[id,v]))`), DerivableParentIDs: true},
	}
	st := view.NewStore(doc, views)
	sawVectorized := false
	for _, qSrc := range []string{
		`a(/b[id](/c[v]{v>5}))`,
		`a(/b[id](/c[v]))`,
	} {
		q := pattern.MustParse(qSrc)
		res, err := core.Rewrite(q, views, s, core.DefaultRewriteOptions())
		if err != nil {
			t.Fatalf("Rewrite(%s): %v", qSrc, err)
		}
		if len(res.Rewritings) == 0 {
			t.Fatalf("no rewritings for %s", qSrc)
		}
		for _, plan := range res.Rewritings {
			var xs ExecStats
			vec, err := ExecuteWith(plan, st, Options{Stats: &xs})
			if err != nil {
				t.Fatalf("vectorized %s: %v", plan, err)
			}
			row, err := Execute(plan, rowPath{st})
			if err != nil {
				t.Fatalf("row path %s: %v", plan, err)
			}
			assertByteIdentical(t, vec, row)
			if xs.Vectorized() {
				sawVectorized = true
			}
		}
	}
	if !sawVectorized {
		t.Fatal("no rewriting took the vectorized path; the prepared-view test is vacuous")
	}
}

// TestSuccID pins the subtree successor bound the join pruning relies on:
// subtree(id) ⊆ [id, succ(id)), with the root and ceiling components
// unbounded.
func TestSuccID(t *testing.T) {
	id := func(cs ...uint32) nodeid.ID { return nodeid.ID(cs) }
	s, unb := succID(id(1, 4))
	if unb || s.Compare(id(1, 5)) != 0 {
		t.Fatalf("succ(1.4) = %v unbounded=%v, want 1.5", s, unb)
	}
	// A descendant sorts before the successor, a following sibling after.
	if desc := id(1, 4, 7); !(desc.Compare(id(1, 4)) >= 0 && desc.Compare(s) < 0) {
		t.Fatal("descendant escapes [id, succ(id))")
	}
	if sib := id(1, 5); sib.Compare(s) < 0 {
		t.Fatal("following sibling inside [id, succ(id))")
	}
	if _, unb := succID(nil); !unb {
		t.Fatal("root must be unbounded")
	}
	if _, unb := succID(id(2, ^uint32(0))); !unb {
		t.Fatal("ceiling component must be unbounded")
	}
}

// benchDoc builds a flat document of n children under root where only the
// contiguous run [rareLo, rareHi) carries the label "rare" — the clustered
// selective predicate the zone maps are designed for.
func benchDoc(n, rareLo, rareHi int) *xmltree.Document {
	d := xmltree.NewDocument("r")
	for i := 0; i < n; i++ {
		lbl := "item"
		if i >= rareLo && i < rareHi {
			lbl = "rare"
		}
		d.Root.AddChild(lbl, fmt.Sprintf("%d", i%100))
	}
	return d
}

// BenchmarkVecSelect compares the two selection paths on a selective,
// clustered label predicate over a 128k-row extent (XMark scale >= 10
// territory for one element type).
func BenchmarkVecSelect(b *testing.B) {
	const n = 128 << 10
	all := &core.View{Name: "all", Pattern: pattern.MustParse(`r(/*[id,l,v])`)}
	st := view.NewStore(benchDoc(n, n/2, n/2+300), []*core.View{all})
	plan := &core.Plan{Op: core.OpSelectLabel, Input: core.Scan(all), Slot: 0, Label: "rare"}
	// Build the store's columnar handle outside the timed loops.
	if _, err := Execute(plan, st); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name string
		st   Reader
	}{
		{"row", rowPath{st}},
		{"vectorized", st},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Execute(plan, path.st)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rel.Len() != 300 {
					b.Fatalf("rows = %d, want 300", res.Rel.Len())
				}
			}
		})
	}
}

// benchJoinStore builds regions regions of leafPerRegion leaves each, one
// region labeled "anc": the ancestor side of the join selects that single
// subtree, so zone maps can skip every other region's leaf blocks.
func benchJoinStore(regions, leafPerRegion int) (*view.Store, *core.View, *core.View) {
	d := xmltree.NewDocument("r")
	for i := 0; i < regions; i++ {
		lbl := "region"
		if i == regions/2 {
			lbl = "anc"
		}
		rg := d.Root.AddChild(lbl, "")
		for j := 0; j < leafPerRegion; j++ {
			rg.AddChild("leaf", fmt.Sprintf("%d", j%100))
		}
	}
	va := &core.View{Name: "va", Pattern: pattern.MustParse(`r(/anc[id])`)}
	vb := &core.View{Name: "vb", Pattern: pattern.MustParse(`r(//leaf[id,v])`)}
	return view.NewStore(d, []*core.View{va, vb}), va, vb
}

// BenchmarkVecJoin compares structural-join execution with and without
// zone-map pruning of the descendant-side scan (128 regions x 1024 leaves,
// one region matching).
func BenchmarkVecJoin(b *testing.B) {
	st, va, vb := benchJoinStore(128, 1024)
	plan := core.NewJoin(core.JoinAncestor, false, core.Scan(va), 0, core.Scan(vb), 0)
	// Build the store's columnar handle outside the timed loops.
	if _, err := Execute(plan, st); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name string
		st   Reader
	}{
		{"row", rowPath{st}},
		{"vectorized", st},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Execute(plan, path.st)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rel.Len() != 1024 {
					b.Fatalf("rows = %d, want 1024", res.Rel.Len())
				}
			}
		})
	}
}
