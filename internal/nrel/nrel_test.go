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

// refRender renders a value the way the /query contract defines it,
// independently of the package's appenders: ⊥ for null, the text of a
// string, an ID's dotted form, a content's parenthesized tree, and a
// nested table's rows in brackets, separated by "; ".
func refRender(v Value) string {
	switch v.Kind {
	case KindNull:
		return "⊥"
	case KindString:
		return v.Str
	case KindID:
		return v.ID.String()
	case KindContent:
		if v.Content == nil {
			return "⊥"
		}
		return v.Content.Root.String()
	case KindTable:
		if v.Table == nil {
			return "[]"
		}
		rows := make([]string, len(v.Table.Rows))
		for i, row := range v.Table.Rows {
			rows[i] = refRow(row)
		}
		return "[" + strings.Join(rows, "; ") + "]"
	}
	return "?"
}

// refRow joins a row's value renderings with " | ".
func refRow(row Tuple) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = refRender(v)
	}
	return strings.Join(parts, " | ")
}

// refSorted is the reference /query order: a stable sort that renders both
// rows on every comparison.
func refSorted(rows []Tuple) []Tuple {
	out := append([]Tuple(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return refRow(out[i]) < refRow(out[j]) })
	return out
}

// refDistinct keeps the first occurrence of each row rendering.
func refDistinct(rows []Tuple) []Tuple {
	var out []Tuple
	seen := map[string]bool{}
	for _, row := range rows {
		if k := refRow(row); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// TestSortedOrderContract pins the /query order and set semantics: Sorted,
// Distinct, EqualAsSet's canonical form and the one-pass rendering's
// windows and count must all equal the reference, on relations mixing
// every value kind with the renderings most likely to expose a different
// key (⊥ against the string "⊥", caret IDs, separators and control bytes
// inside values, contents and nested tables).
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
	for _, v := range pool {
		if got, want := v.Render(), refRender(v); got != want {
			t.Fatalf("Render = %q, want %q", got, want)
		}
		if got, want := string(AppendValue([]byte("pre"), v)), "pre"+refRender(v); got != want {
			t.Fatalf("AppendValue = %q, want %q", got, want)
		}
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
		want.Rows = refSorted(r.Rows)
		if got := r.Sorted().String(); got != want.String() {
			t.Fatalf("iteration %d: Sorted\n%swant\n%s", iter, got, want)
		}
		distinct := NewRelation(r.Cols...)
		distinct.Rows = refDistinct(r.Rows)
		if got := r.Distinct().String(); got != distinct.String() {
			t.Fatalf("iteration %d: Distinct\n%swant\n%s", iter, got, distinct)
		}
		keys := make([]string, distinct.Len())
		for i, row := range distinct.Rows {
			keys[i] = refRow(row)
		}
		sort.Strings(keys)
		if got, want := r.canonical(), strings.Join(keys, "\n"); got != want {
			t.Fatalf("iteration %d: canonical %q, want %q", iter, got, want)
		}

		// The one-pass rendering: its rows are Distinct's, its count needs
		// no order, and every window equals the same rows of the reference
		// order, cell by cell.
		rel, rd := r.Extent().RenderDistinct()
		if rel.String() != distinct.String() || rd.Len() != distinct.Len() {
			t.Fatalf("iteration %d: RenderDistinct %d rows\n%swant %d\n%s", iter, rd.Len(), rel, distinct.Len(), distinct)
		}
		ordered := refSorted(distinct.Rows)
		n := len(ordered)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		for _, win := range [][2]int{{0, n}, {lo, hi}, {0, hi}, {lo, n}} {
			cells := rd.Window(win[0], win[1])
			if cells == nil || len(cells) != win[1]-win[0] {
				t.Fatalf("iteration %d: window %v has %d rows", iter, win, len(cells))
			}
			for k, row := range ordered[win[0]:win[1]] {
				for j, v := range row {
					if cells[k][j] != refRender(v) {
						t.Fatalf("iteration %d: window %v row %d cell %d = %q, want %q", iter, win, k, j, cells[k][j], refRender(v))
					}
				}
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

// TestOrderWindows checks the radix sort's windows against a stable
// comparison sort, on every window of small relations and on random
// windows of larger ones. The values are drawn from a two-letter alphabet,
// so renderings share long prefixes, are prefixes of one another and tie.
func TestOrderWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(n int, windows func(n int) [][2]int) {
		rows := make([]Tuple, n)
		for i := range rows {
			b := make([]byte, rng.Intn(12))
			for k := range b {
				b[k] = "ab"[rng.Intn(2)]
			}
			rows[i] = Tuple{String(string(b))}
		}
		_, rd := renderRows([]string{"x"}, rows, false)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(i, j int) bool { return refRow(rows[want[i]]) < refRow(rows[want[j]]) })
		for _, w := range windows(n) {
			got := rd.order(w[0], w[1])
			if fmt.Sprint(got) != fmt.Sprint(want[w[0]:w[1]]) {
				t.Fatalf("n=%d window %v: order %v, want %v", n, w, got, want[w[0]:w[1]])
			}
		}
	}
	for n := 0; n <= 40; n++ {
		check(n, func(n int) (ws [][2]int) {
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					ws = append(ws, [2]int{lo, hi})
				}
			}
			return ws
		})
	}
	for iter := 0; iter < 100; iter++ {
		check(1+rng.Intn(3000), func(n int) [][2]int {
			lo := rng.Intn(n)
			return [][2]int{{0, n}, {lo, lo + rng.Intn(n-lo+1)}, {lo, n}, {0, lo}}
		})
	}
}

// TestSortedAllocsPerRow bounds Sorted's allocations: each row is rendered
// once into one shared buffer, not on every comparison and not into a
// string per value, so the count barely grows with the rows (18 for these
// 1000; the bound is about twice that).
func TestSortedAllocsPerRow(t *testing.T) {
	const n = 1000
	r := NewRelation("id", "v")
	for i := 0; i < n; i++ {
		r.Append(Tuple{ID(nodeid.New(1, 3, uint32(2*((i*7919)%n)+1))), String(fmt.Sprintf("name %d", i%97))})
	}
	perRow := testing.AllocsPerRun(5, func() { r.Sorted() }) / n
	if perRow > 0.04 {
		t.Fatalf("Sorted allocates %.3f times per row, want <= 0.04", perRow)
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
