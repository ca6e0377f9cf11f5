package nodeid

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRootAndChildren(t *testing.T) {
	r := Root()
	if got := r.String(); got != "1" {
		t.Fatalf("Root() = %q, want %q", got, "1")
	}
	c := r.Child(3)
	if got := c.String(); got != "1.5" {
		t.Fatalf("Child(3) = %q, want %q (third birth ordinal)", got, "1.5")
	}
	gc := c.Child(2)
	if got := gc.String(); got != "1.5.3" {
		t.Fatalf("grandchild = %q, want %q", got, "1.5.3")
	}
	if gc.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", gc.Depth())
	}
}

func TestParentDerivation(t *testing.T) {
	id := New(1, 5, 3, 1)
	p := id.Parent()
	if got := p.String(); got != "1.5.3" {
		t.Fatalf("Parent = %q, want 1.5.3", got)
	}
	if got := Root().Parent(); !got.IsNull() {
		t.Fatalf("Parent of root = %v, want null", got)
	}
	if got := ID(nil).Parent(); !got.IsNull() {
		t.Fatalf("Parent of null = %v, want null", got)
	}
	// A caret level strips as one unit: 1.4.1 is a child of 1, not of 1.4.
	if got := New(1, 4, 1).Parent().String(); got != "1" {
		t.Fatalf("Parent(1.4.1) = %q, want 1", got)
	}
	if got := New(1, 3, 2, 0, 5).Parent().String(); got != "1.3" {
		t.Fatalf("Parent(1.3.2.0.5) = %q, want 1.3", got)
	}
}

// TestAncestorSharesWithoutAliasing checks that Ancestor is repeated
// Parent, and that appending to a derived ID, which shares its source's
// array, leaves the source unchanged.
func TestAncestorSharesWithoutAliasing(t *testing.T) {
	id := New(1, 3, 2, 0, 5, 7, 4, 9)
	for up := 0; up <= 5; up++ {
		want := id
		for k := 0; k < up; k++ {
			want = want.Parent()
		}
		if got := id.Ancestor(up); !got.Equal(want) {
			t.Fatalf("Ancestor(%d) = %v, want %v", up, got, want)
		}
	}
	src := id.Clone()
	for up := 1; up <= 3; up++ {
		anc := id.Ancestor(up)
		grown := append(anc, 99, 101)
		grown[0] = 42
		if !id.Equal(src) {
			t.Fatalf("appending to Ancestor(%d) wrote into its source: %v, want %v", up, id, src)
		}
	}
	if !ID(nil).Ancestor(1).IsNull() || !Root().Ancestor(2).IsNull() {
		t.Fatal("Ancestor past the root must be null")
	}
}

// TestAppendToMatchesString checks AppendTo against the dotted form built
// component by component, on random IDs with carets, zero and maximal
// components, after a non-empty prefix.
func TestAppendToMatchesString(t *testing.T) {
	ref := func(id ID) string {
		if id.IsNull() {
			return "⊥"
		}
		parts := make([]string, len(id))
		for i, c := range id {
			parts[i] = strconv.FormatUint(uint64(c), 10)
		}
		return strings.Join(parts, ".")
	}
	prop := func(cs []uint32) bool {
		id := ID(cs)
		return string(id.AppendTo([]byte("x:"))) == "x:"+ref(id) && id.String() == ref(id)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ID{nil, {}, {0}, {^uint32(0)}, New(1, 0, 2, ^uint32(0), 1)} {
		if !prop(id) {
			t.Fatalf("AppendTo(%v) = %q, want %q", []uint32(id), id.AppendTo(nil), ref(id))
		}
	}
}

func TestCaretDepth(t *testing.T) {
	cases := []struct {
		id   ID
		want int
	}{
		{New(1), 1},
		{New(1, 4, 1), 2},
		{New(1, 3, 2, 0, 5), 3},
		{New(1, 0, 1), 2},
	}
	for _, c := range cases {
		if got := c.id.Depth(); got != c.want {
			t.Errorf("Depth(%s) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestAncestorAtDepth(t *testing.T) {
	id := New(1, 5, 3, 1)
	cases := []struct {
		depth int
		want  string
	}{
		{1, "1"}, {2, "1.5"}, {3, "1.5.3"}, {4, "1.5.3.1"},
	}
	for _, c := range cases {
		if got := id.AncestorAtDepth(c.depth).String(); got != c.want {
			t.Errorf("AncestorAtDepth(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
	if got := id.AncestorAtDepth(0); !got.IsNull() {
		t.Errorf("AncestorAtDepth(0) = %v, want null", got)
	}
	if got := id.AncestorAtDepth(5); !got.IsNull() {
		t.Errorf("AncestorAtDepth(5) = %v, want null", got)
	}
	// Caret components stay glued to their level.
	caret := New(1, 4, 1, 3)
	if got := caret.AncestorAtDepth(2).String(); got != "1.4.1" {
		t.Errorf("AncestorAtDepth(2) of 1.4.1.3 = %q, want 1.4.1", got)
	}
}

func TestStructuralRelationships(t *testing.T) {
	a := New(1, 3)
	b := New(1, 3, 5)
	c := New(1, 3, 5, 7)
	d := New(1, 5)

	if !a.IsParentOf(b) {
		t.Error("1.3 should be parent of 1.3.5")
	}
	if a.IsParentOf(c) {
		t.Error("1.3 should not be parent of 1.3.5.7")
	}
	if !a.IsAncestorOf(c) {
		t.Error("1.3 should be ancestor of 1.3.5.7")
	}
	if a.IsAncestorOf(a) {
		t.Error("ancestor must be proper")
	}
	if a.IsAncestorOf(d) || d.IsAncestorOf(a) {
		t.Error("siblings are not ancestors")
	}
	if b.IsAncestorOf(a) {
		t.Error("descendant is not ancestor")
	}
	// Caret children: 1.3 is the parent of 1.3.4.1 (a careted level).
	if !a.IsParentOf(New(1, 3, 4, 1)) {
		t.Error("1.3 should be parent of careted child 1.3.4.1")
	}
	if a.IsParentOf(New(1, 3, 4, 1, 3)) {
		t.Error("1.3 is grandparent, not parent, of 1.3.4.1.3")
	}
}

func TestDocumentOrder(t *testing.T) {
	ids := []ID{
		New(1, 3, 2, 7),
		New(1),
		New(1, 4, 1),
		New(1, 3),
		New(1, 3, 3),
		New(1, 3, 11),
		New(1, 5),
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	want := []string{"1", "1.3", "1.3.2.7", "1.3.3", "1.3.11", "1.4.1", "1.5"}
	for i, w := range want {
		if got := ids[i].String(); got != w {
			t.Fatalf("sorted[%d] = %q, want %q (full %v)", i, got, w, ids)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"1", "1.2.3", "1.100.43", "1.4.0.1"} {
		id, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if id.String() != s {
			t.Fatalf("round trip %q -> %q", s, id.String())
		}
	}
	for _, s := range []string{"a", "1.0", "1.2", "1..2", "1.-3"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	if id, err := Parse(""); err != nil || !id.IsNull() {
		t.Errorf("Parse(\"\") = %v, %v; want null, nil", id, err)
	}
}

func TestVerticalDistance(t *testing.T) {
	a := New(1, 3)
	b := New(1, 3, 5, 9)
	if d, ok := a.VerticalDistance(b); !ok || d != 2 {
		t.Errorf("VerticalDistance = %d,%v; want 2,true", d, ok)
	}
	if d, ok := a.VerticalDistance(a); !ok || d != 0 {
		t.Errorf("self distance = %d,%v; want 0,true", d, ok)
	}
	if _, ok := b.VerticalDistance(a); ok {
		t.Error("descendant->ancestor distance should fail")
	}
	if _, ok := New(1, 5).VerticalDistance(b); ok {
		t.Error("unrelated distance should fail")
	}
	// Careted descendant: 1.4.1 is one level below 1.
	if d, ok := Root().VerticalDistance(New(1, 4, 1)); !ok || d != 1 {
		t.Errorf("VerticalDistance(1, 1.4.1) = %d,%v; want 1,true", d, ok)
	}
}

func TestSiblingBetween(t *testing.T) {
	parent := Root()
	first, err := SiblingBetween(parent, nil, nil)
	if err != nil || first.String() != "1.1" {
		t.Fatalf("first child = %v, %v; want 1.1", first, err)
	}
	cases := []struct {
		left, right string
	}{
		{"1.1", ""},      // append
		{"", "1.1"},      // prepend
		{"1.3", "1.5"},   // adjacent odd siblings
		{"1.1", "1.3"},   // adjacent with no room
		{"1.3", "1.4.1"}, // right is a caret child
		{"1.4.1", "1.5"}, // left is a caret child
		{"1.4.1", "1.4.3"},
		{"1.4.1", "1.4.2.1"},
		{"1.0.1", "1.1"},
	}
	for _, c := range cases {
		var l, r ID
		if c.left != "" {
			l, _ = Parse(c.left)
		}
		if c.right != "" {
			r, _ = Parse(c.right)
		}
		got, err := SiblingBetween(parent, l, r)
		if err != nil {
			t.Fatalf("SiblingBetween(%q, %q): %v", c.left, c.right, err)
		}
		if !got.IsWellFormed() {
			t.Fatalf("SiblingBetween(%q, %q) = %s: not well-formed", c.left, c.right, got)
		}
		if !parent.IsParentOf(got) {
			t.Fatalf("SiblingBetween(%q, %q) = %s: not a child of %s", c.left, c.right, got, parent)
		}
		if l != nil && l.Compare(got) >= 0 {
			t.Fatalf("SiblingBetween(%q, %q) = %s: not after left", c.left, c.right, got)
		}
		if r != nil && got.Compare(r) >= 0 {
			t.Fatalf("SiblingBetween(%q, %q) = %s: not before right", c.left, c.right, got)
		}
	}
	if _, err := SiblingBetween(parent, New(1, 5), New(1, 3)); err == nil {
		t.Error("out-of-order siblings not rejected")
	}
	if _, err := SiblingBetween(parent, New(1, 3, 3), nil); err == nil {
		t.Error("non-child left sibling not rejected")
	}
}

// Property: an arbitrary sequence of insertions at random positions keeps
// every allocated ID well-formed, strictly ordered, a child of the parent,
// and never disturbs earlier IDs.
func TestSiblingBetweenInsertionStorm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	parent := New(1, 5, 3)
	sibs := []ID{}
	for i := 0; i < 2000; i++ {
		pos := r.Intn(len(sibs) + 1)
		var left, right ID
		if pos > 0 {
			left = sibs[pos-1]
		}
		if pos < len(sibs) {
			right = sibs[pos]
		}
		id, err := SiblingBetween(parent, left, right)
		if err != nil {
			t.Fatalf("insert %d at %d: %v", i, pos, err)
		}
		if !id.IsWellFormed() || !parent.IsParentOf(id) || parent.IsAncestorOf(parent) {
			t.Fatalf("insert %d: bad ID %s", i, id)
		}
		sibs = append(sibs[:pos:pos], append([]ID{id}, sibs[pos:]...)...)
		// Also descend occasionally so depths interleave with carets.
		if i%97 == 0 {
			child := id.Child(1)
			if !id.IsParentOf(child) || child.Depth() != id.Depth()+1 {
				t.Fatalf("child of careted ID %s broken: %s", id, child)
			}
		}
	}
	for i := 1; i < len(sibs); i++ {
		if sibs[i-1].Compare(sibs[i]) >= 0 {
			t.Fatalf("order violated at %d: %s >= %s", i, sibs[i-1], sibs[i])
		}
		if sibs[i-1].IsAncestorOf(sibs[i]) || sibs[i].IsAncestorOf(sibs[i-1]) {
			t.Fatalf("siblings %s and %s claim ancestry", sibs[i-1], sibs[i])
		}
	}
}

func randomID(r *rand.Rand) ID {
	depth := 1 + r.Intn(6)
	id := ID{1}
	for i := 1; i < depth; i++ {
		// Random caret run then an odd terminator.
		for r.Intn(4) == 0 {
			id = append(id, uint32(r.Intn(5))*2)
		}
		id = append(id, uint32(r.Intn(5))*2+1)
	}
	return id
}

// Property: Compare is a total order consistent with Equal, and an ancestor
// always precedes its descendants.
func TestCompareProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomID(r), randomID(r)
		ab, ba := a.Compare(b), b.Compare(a)
		if ab != -ba {
			t.Fatalf("Compare not antisymmetric: %v vs %v: %d %d", a, b, ab, ba)
		}
		if (ab == 0) != a.Equal(b) {
			t.Fatalf("Compare==0 disagrees with Equal: %v vs %v", a, b)
		}
		if a.IsAncestorOf(b) && ab != -1 {
			t.Fatalf("ancestor %v should precede descendant %v", a, b)
		}
	}
}

// Property: Parent is the unique ancestor at depth-1, and parse/print
// round-trips, for IDs containing caret runs.
func TestParentProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		id := ID{1}
		for _, c := range raw {
			if c%3 == 0 {
				id = append(id, uint32(c%8)) // even caret (may be 0)
			}
			id = append(id, uint32(c%8)|1) // odd terminator
		}
		if id.Depth() > 1 {
			p := id.Parent()
			if !p.IsParentOf(id) || !p.Equal(id.AncestorAtDepth(id.Depth()-1)) {
				return false
			}
		}
		back, err := Parse(id.String())
		return err == nil && back.Equal(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2, 3)
	b := a.Clone()
	b[2] = 9
	if a[2] != 3 {
		t.Fatal("Clone shares storage with original")
	}
}
