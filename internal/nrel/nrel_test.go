package nrel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/xmltree"
)

func TestValueRenderAndEqual(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "⊥"},
		{String("pen"), "pen"},
		{ID(nodeid.New(1, 2, 3)), "1.2.3"},
		{Content(xmltree.MustParseParen(`a(b "1")`)), `a(b "1")`},
	}
	for _, c := range cases {
		if got := c.v.Render(); got != c.want {
			t.Errorf("Render = %q, want %q", got, c.want)
		}
		if !c.v.Equal(c.v) {
			t.Errorf("%v not equal to itself", c.v)
		}
	}
	if String("a").Equal(Null()) || String("a").Equal(String("b")) {
		t.Error("Equal too permissive")
	}
	if !ID(nodeid.New(1, 2)).Equal(ID(nodeid.New(1, 2))) {
		t.Error("ID equality failed")
	}
}

func TestTableValueEqualAsSet(t *testing.T) {
	r1 := NewRelation("x")
	r1.Append(Tuple{String("1")})
	r1.Append(Tuple{String("2")})
	r2 := NewRelation("x")
	r2.Append(Tuple{String("2")})
	r2.Append(Tuple{String("1")})
	r2.Append(Tuple{String("1")}) // duplicate: set semantics
	if !Table(r1).Equal(Table(r2)) {
		t.Error("tables should compare as sets")
	}
	r3 := NewRelation("x")
	r3.Append(Tuple{String("3")})
	if Table(r1).Equal(Table(r3)) {
		t.Error("different tables reported equal")
	}
	if !Table(nil).Equal(Table(NewRelation("x"))) {
		t.Error("nil and empty tables should be equal")
	}
}

func TestProjectDistinctSorted(t *testing.T) {
	r := NewRelation("a", "b")
	r.Append(Tuple{String("2"), String("x")})
	r.Append(Tuple{String("1"), String("y")})
	r.Append(Tuple{String("2"), String("z")})
	p := r.Project("a")
	if len(p.Cols) != 1 || p.Len() != 3 {
		t.Fatalf("Project = %v", p)
	}
	d := p.Distinct()
	if d.Len() != 2 {
		t.Fatalf("Distinct = %d rows", d.Len())
	}
	sorted := d.Sorted()
	if sorted.Rows[0][0].Str != "1" {
		t.Fatalf("Sorted = %v", sorted)
	}
	// Projection of an unknown column panics.
	defer func() {
		if recover() == nil {
			t.Error("Project of unknown column should panic")
		}
	}()
	r.Project("zz")
}

// TestSortedOrderContract pins the /query order: Sorted must equal a sort
// that renders both rows on every comparison, on relations mixing every
// value kind with the renderings most likely to expose a different key
// (⊥ against the string "⊥", caret IDs, separators inside values).
func TestSortedOrderContract(t *testing.T) {
	inner := NewRelation("x")
	inner.Append(Tuple{String("b | c")})
	inner.Append(Tuple{Null()})
	pool := []Value{
		Null(), String("⊥"), String(""), String("a"), String("a b"), String("x"), String("y"),
		String("a | x"), String(" | "), String("a\x00"), String("\t"), String("\x1fz"),
		ID(nodeid.New(1, 2, 3)), ID(nodeid.New(1, 10)), ID(nodeid.New(1, 9)), ID(nodeid.New(1)), ID(nil),
		Content(nil), Content(xmltree.MustParseParen(`a(b "1 | 2")`)), Content(xmltree.MustParseParen(`a`)),
		Table(nil), Table(NewRelation("x")), Table(inner),
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		r := NewRelation(make([]string, 1+rng.Intn(3))...)
		for n := rng.Intn(40); n > 0; n-- {
			row := make(Tuple, len(r.Cols))
			for i := range row {
				row[i] = pool[rng.Intn(len(pool))]
			}
			r.Append(row)
			if rng.Intn(4) == 0 {
				r.Append(row) // duplicate row
			}
		}
		want := NewRelation(r.Cols...)
		want.Rows = append(want.Rows, r.Rows...)
		sort.SliceStable(want.Rows, func(i, j int) bool {
			return renderRow(want.Rows[i]) < renderRow(want.Rows[j])
		})
		if got := r.Sorted().String(); got != want.String() {
			t.Fatalf("iteration %d: Sorted\n%swant\n%s", iter, got, want)
		}
		for _, rr := range r.RenderSorted() {
			if rr.Key != renderRow(rr.Row) || rr.Key != strings.Join(rr.Parts, " | ") {
				t.Fatalf("iteration %d: key %q, parts %q for row %q", iter, rr.Key, rr.Parts, renderRow(rr.Row))
			}
		}
	}
	// The order compares joined text, not column by column.
	r := NewRelation("k", "v")
	r.Append(Tuple{String("a"), String("x")})
	r.Append(Tuple{String("a b"), String("y")})
	if got := r.Sorted().Rows[0][0].Str; got != "a b" {
		t.Fatalf("first row starts %q, want \"a b\"", got)
	}
}

// TestSortedAllocsPerRow bounds Sorted's allocations: each row is rendered
// once, not on every comparison.
func TestSortedAllocsPerRow(t *testing.T) {
	const n = 1000
	r := NewRelation("id", "v")
	for i := 0; i < n; i++ {
		r.Append(Tuple{ID(nodeid.New(1, 3, uint32(2*((i*7919)%n)+1))), String(fmt.Sprintf("name %d", i%97))})
	}
	perRow := testing.AllocsPerRun(5, func() { r.Sorted() }) / n
	if perRow > 16 {
		t.Fatalf("Sorted allocates %.1f times per row, want <= 16", perRow)
	}
}

func TestAppendArityPanic(t *testing.T) {
	r := NewRelation("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	r.Append(Tuple{String("1")})
}

func TestColIndexAndLen(t *testing.T) {
	r := NewRelation("a", "b")
	if r.ColIndex("b") != 1 || r.ColIndex("zz") != -1 {
		t.Error("ColIndex wrong")
	}
	var nilRel *Relation
	if nilRel.Len() != 0 {
		t.Error("nil relation Len should be 0")
	}
}

func TestEqualAsSetSchemas(t *testing.T) {
	a := NewRelation("x", "y")
	b := NewRelation("x")
	if a.EqualAsSet(b) {
		t.Error("different widths reported equal")
	}
}
