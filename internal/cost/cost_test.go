package cost

import (
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// testWorld builds a small document, its summary (with statistics) and two
// views: items with names, and all names.
func testWorld(t *testing.T) (*summary.Summary, *core.View, *core.View) {
	t.Helper()
	doc := xmltree.MustParseParen(
		`site(item(name "pen") item(name "ink") item(name "dry") person(name "bob"))`)
	s := summary.Build(doc)
	vi := &core.View{Name: "VI", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`)}
	vn := &core.View{Name: "VN", Pattern: pattern.MustParse(`site(//name[id,v])`)}
	return s, vi, vn
}

func TestScanCostMonotonicInRows(t *testing.T) {
	s, vi, _ := testWorld(t)
	small, big := FromSummary(s), FromSummary(s)
	small.Rows[vi.Name] = 10
	big.Rows[vi.Name] = 10000
	cSmall, err := NewEstimator(small).Estimate(core.Scan(vi))
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := NewEstimator(big).Estimate(core.Scan(vi))
	if err != nil {
		t.Fatal(err)
	}
	if cBig.Total <= cSmall.Total {
		t.Fatalf("more rows must cost more: %v vs %v", cBig, cSmall)
	}
	if cBig.Rows <= cSmall.Rows {
		t.Fatalf("more rows must estimate more output: %v vs %v", cBig, cSmall)
	}
}

func TestScanCostMonotonicInBytes(t *testing.T) {
	s, vi, _ := testWorld(t)
	slim, fat := FromSummary(s), FromSummary(s)
	slim.Rows[vi.Name], fat.Rows[vi.Name] = 100, 100
	slim.Bytes[vi.Name], fat.Bytes[vi.Name] = 1024, 1<<20
	cSlim, _ := NewEstimator(slim).Estimate(core.Scan(vi))
	cFat, _ := NewEstimator(fat).Estimate(core.Scan(vi))
	if cFat.Total <= cSlim.Total {
		t.Fatalf("more bytes must cost more: %v vs %v", cFat, cSlim)
	}
}

func TestNestedJoinAtLeastPlain(t *testing.T) {
	s, vi, vn := testWorld(t)
	st := FromSummary(s)
	st.Rows[vi.Name], st.Rows[vn.Name] = 100, 400
	est := NewEstimator(st)
	plain := core.NewJoin(core.JoinParent, false, core.Scan(vi), 0, core.Scan(vn), 0)
	nested := core.NewJoin(core.JoinParent, true, core.Scan(vi), 0, core.Scan(vn), 0)
	cPlain, err := est.Estimate(plain)
	if err != nil {
		t.Fatal(err)
	}
	cNested, err := est.Estimate(nested)
	if err != nil {
		t.Fatal(err)
	}
	if cNested.Total < cPlain.Total {
		t.Fatalf("nested join must cost at least the plain join: %v vs %v", cNested, cPlain)
	}
}

func TestJoinOutputUsesChainCardinalities(t *testing.T) {
	s, vi, vn := testWorld(t)
	st := FromSummary(s)
	// 3 items, 4 names (3 item names + 1 person name).
	st.Rows[vi.Name], st.Rows[vn.Name] = 3, 4
	est := NewEstimator(st)
	// Parent join item ≺ name: only item names survive — 3 rows expected.
	j := core.NewJoin(core.JoinParent, false, core.Scan(vi), 0, core.Scan(vn), 0)
	c, err := est.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows < 2 || c.Rows > 4 {
		t.Fatalf("parent-join output estimate %v, want ~3", c.Rows)
	}
	// An ID join on the same slots is infeasible (item and name paths are
	// disjoint): estimated output 0.
	id := core.NewJoin(core.JoinID, false, core.Scan(vi), 0, core.Scan(vn), 0)
	cid, err := est.Estimate(id)
	if err != nil {
		t.Fatal(err)
	}
	if cid.Rows != 0 {
		t.Fatalf("disjoint ID join output %v, want 0", cid.Rows)
	}
}

func TestUniformFallbackWithoutStats(t *testing.T) {
	// Hand-built summary: no counts anywhere.
	s := summary.MustParse(`site(item(name) person(name))`)
	if s.HasStats() {
		t.Fatal("hand-built summary must not carry stats")
	}
	vi := &core.View{Name: "VI", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`)}
	est := NewEstimator(FromSummary(s))
	c, err := est.Estimate(core.Scan(vi))
	if err != nil {
		t.Fatal(err)
	}
	if c.Total <= 0 || c.Rows <= 0 {
		t.Fatalf("uniform fallback must produce positive estimates, got %v", c)
	}
}

func TestSelections(t *testing.T) {
	s, _, vn := testWorld(t)
	st := FromSummary(s)
	st.Rows[vn.Name] = 4
	est := NewEstimator(st)
	scan := core.Scan(vn)
	base, _ := est.Estimate(scan)

	sel := &core.Plan{Op: core.OpSelectValue, Slot: 0, Input: scan}
	c, err := est.Estimate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows >= base.Rows {
		t.Fatalf("value selection must reduce rows: %v vs %v", c.Rows, base.Rows)
	}
	if c.Total <= base.Total {
		t.Fatalf("selection costs a pass over its input: %v vs %v", c.Total, base.Total)
	}

	lab := &core.Plan{Op: core.OpSelectLabel, Slot: 0, Label: "name", Input: scan}
	cl, err := est.Estimate(lab)
	if err != nil {
		t.Fatal(err)
	}
	// Every row of VN is a name: label selectivity 1.
	if cl.Rows != base.Rows {
		t.Fatalf("label selection on the slot's own label keeps all rows: %v vs %v", cl.Rows, base.Rows)
	}
	labMiss := &core.Plan{Op: core.OpSelectLabel, Slot: 0, Label: "zzz", Input: scan}
	cm, err := est.Estimate(labMiss)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Rows != 0 {
		t.Fatalf("label selection on an absent label keeps nothing, got %v", cm.Rows)
	}
}

func TestUnionAdditive(t *testing.T) {
	s, vi, vn := testWorld(t)
	st := FromSummary(s)
	st.Rows[vi.Name], st.Rows[vn.Name] = 3, 4
	est := NewEstimator(st)
	a, b := core.Scan(vi), core.Scan(vi)
	u := &core.Plan{Op: core.OpUnion, Parts: []*core.Plan{a, b}}
	cu, err := est.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := est.Estimate(a)
	if cu.Rows != 2*ca.Rows {
		t.Fatalf("union rows %v, want %v", cu.Rows, 2*ca.Rows)
	}
	if cu.Total < 2*ca.Total {
		t.Fatalf("union cost %v, want at least %v", cu.Total, 2*ca.Total)
	}
}

// TestContentViewPricedWithoutCatalog reproduces the fat-vs-slim choice
// through the summary-only statistics path (what `xv rewrite -cost` uses): a
// view storing content subtrees must cost more than a structurally
// identical slim view even when no catalog byte counts exist.
func TestContentViewPricedWithoutCatalog(t *testing.T) {
	doc := xmltree.MustParseParen(
		`site(item(name "pen" desc "a long description body") item(name "ink" desc "another long description"))`)
	s := summary.Build(doc)
	fat := &core.View{Name: "VFAT", Pattern: pattern.MustParse(`site(/item[id,c](/name[v]))`)}
	slim := &core.View{Name: "VSLIM", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`)}
	est := NewEstimator(FromSummary(s))
	cFat, err := est.Estimate(core.Scan(fat))
	if err != nil {
		t.Fatal(err)
	}
	cSlim, err := est.Estimate(core.Scan(slim))
	if err != nil {
		t.Fatal(err)
	}
	if cFat.Total <= cSlim.Total {
		t.Fatalf("content-bearing scan must cost more than the slim one without catalog bytes: %v vs %v", cFat, cSlim)
	}
}

func TestOuterJoinPaddingPricedBySelection(t *testing.T) {
	s, vi, vn := testWorld(t)
	st := FromSummary(s)
	st.Rows[vi.Name], st.Rows[vn.Name] = 100, 1
	est := NewEstimator(st)
	outer := core.NewJoin(core.JoinParent, false, core.Scan(vi), 0, core.Scan(vn), 0)
	outer.Outer = true
	cj, err := est.Estimate(outer)
	if err != nil {
		t.Fatal(err)
	}
	// Matched pairs ≈ 25 (1 name row × 3/4 item-name weight × 100/3 items
	// per item path); the outer join floors output at the 100 left rows.
	if cj.Rows != 100 {
		t.Fatalf("outer join rows %v, want 100 (left-padded)", cj.Rows)
	}
	// A label selection on the padded side must keep only the matched
	// share — the executor drops ⊥-padded rows — not all 100.
	sel := &core.Plan{Op: core.OpSelectLabel, Slot: 2, Label: "name", Input: outer}
	c, err := est.Estimate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 25 {
		t.Fatalf("selection above outer join estimated %v rows, want 25 (⊥ padding dropped)", c.Rows)
	}
}

func TestUnionMergesBranchDistributions(t *testing.T) {
	s, _, _ := testWorld(t)
	vi := &core.View{Name: "VIonly", Pattern: pattern.MustParse(`site(/item[id])`)}
	vp := &core.View{Name: "VPonly", Pattern: pattern.MustParse(`site(/person[id])`)}
	st := FromSummary(s)
	st.Rows[vi.Name], st.Rows[vp.Name] = 3, 1
	est := NewEstimator(st)
	u := &core.Plan{Op: core.OpUnion, Parts: []*core.Plan{core.Scan(vi), core.Scan(vp)}}
	sel := &core.Plan{Op: core.OpSelectLabel, Slot: 0, Label: "item", Input: u}
	c, err := est.Estimate(sel)
	if err != nil {
		t.Fatal(err)
	}
	// The union mixes 3 item rows and 1 person row; selecting on the
	// item label must keep 3, not all 4 (which a first-branch-only slot
	// distribution would predict).
	if c.Rows != 3 {
		t.Fatalf("label selection over union estimated %v rows, want 3", c.Rows)
	}
}

func TestFromCatalogPricesScans(t *testing.T) {
	s, vi, _ := testWorld(t)
	// FromSummary without rows estimates from the summary counts (3 items).
	est := NewEstimator(FromSummary(s))
	c, err := est.Estimate(core.Scan(vi))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 {
		t.Fatalf("summary-estimated scan rows %v, want 3", c.Rows)
	}
}
