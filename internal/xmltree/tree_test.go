package xmltree

import (
	"strings"
	"testing"

	"xmlviews/internal/nodeid"
)

func TestAddChildAssignsIDs(t *testing.T) {
	d := NewDocument("a")
	b := d.Root.AddChild("b", "1")
	c := d.Root.AddChild("c", "")
	e := c.AddChild("e", "2")
	if got := b.ID.String(); got != "1.1" {
		t.Errorf("b.ID = %s, want 1.1", got)
	}
	if got := c.ID.String(); got != "1.3" {
		t.Errorf("c.ID = %s, want 1.3", got)
	}
	if got := e.ID.String(); got != "1.3.1" {
		t.Errorf("e.ID = %s, want 1.3.1", got)
	}
	if e.Parent != c || c.Parent != d.Root {
		t.Error("parent pointers wrong")
	}
	if !d.Root.IsAncestorOf(e) || c.IsAncestorOf(b) {
		t.Error("IsAncestorOf wrong")
	}
}

func TestParseXMLBasics(t *testing.T) {
	doc, err := ParseXMLString(`<site><regions><item id="7"><name>pen</name><price>3.5</price></item></regions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "site" {
		t.Fatalf("root = %s", doc.Root.Label)
	}
	if doc.Size() != 6 {
		t.Fatalf("Size = %d, want 6", doc.Size())
	}
	item := doc.Root.Children[0].Children[0]
	if item.Label != "item" {
		t.Fatalf("item = %s", item.Label)
	}
	if item.Children[0].Label != "@id" || item.Children[0].Value != "7" {
		t.Fatalf("attribute child wrong: %v", item.Children[0])
	}
	name := item.Children[1]
	if name.Label != "name" || name.Value != "pen" {
		t.Fatalf("name wrong: %+v", name)
	}
	if got := name.Path(); got != "/site/regions/item/name" {
		t.Fatalf("Path = %s", got)
	}
}

func TestParseXMLWhitespaceAndMixed(t *testing.T) {
	doc, err := ParseXMLString("<a>\n  hello <b>x</b> world\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Value != "hello world" {
		t.Fatalf("Value = %q", doc.Root.Value)
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, s := range []string{"", "<a>", "<a></b>", "<a/><b/>"} {
		if _, err := ParseXMLString(s); err == nil {
			t.Errorf("ParseXMLString(%q) succeeded, want error", s)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	in := `<site><item id="7"><name>pen &amp; ink</name><empty/></item></site>`
	doc, err := ParseXMLString(in)
	if err != nil {
		t.Fatal(err)
	}
	out := doc.XMLString()
	doc2, err := ParseXMLString(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if doc.Root.String() != doc2.Root.String() {
		t.Fatalf("round trip changed tree:\n%s\n%s", doc.Root, doc2.Root)
	}
}

func TestParseParen(t *testing.T) {
	doc, err := ParseParen(`a(b "1" c(b "3" d(e "2")) d "4")`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 7 {
		t.Fatalf("Size = %d, want 7", doc.Size())
	}
	if doc.Root.Children[1].Children[1].Children[0].Value != "2" {
		t.Fatal("nested value lost")
	}
	back, err := ParseParen(doc.Root.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", doc.Root.String(), err)
	}
	if back.Root.String() != doc.Root.String() {
		t.Fatal("paren round trip failed")
	}
	for _, bad := range []string{"", "(", "a(b", `a(b "x)`, "a b"} {
		if _, err := ParseParen(bad); err == nil {
			t.Errorf("ParseParen(%q) succeeded, want error", bad)
		}
	}
}

// TestParenValuesRoundTrip: String writes values as Go string literals and
// ParseParen reads them back exactly — the update log replays inserted
// subtrees through this pair, so a lossy value would fork the replayed
// document from the committed one.
func TestParenValuesRoundTrip(t *testing.T) {
	for _, v := range []string{
		"plain", `say "hi"`, `back\\slash`, "tab\there", "line\nbreak", "é ∑ 日本",
		"\x00\xff invalid utf-8", `ends with \\`, `\d not an escape`, `)(`,
	} {
		d := NewDocument("a")
		d.Root.AddChild("b", v).AddChild("c", v+v)
		back, err := ParseParen(d.Root.String())
		if err != nil {
			t.Fatalf("reparse %s: %v", d.Root.String(), err)
		}
		b := back.Root.Children[0]
		if b.Value != v || b.Children[0].Value != v+v {
			t.Errorf("value %q came back as %q / %q via %s", v, b.Value, b.Children[0].Value, d.Root.String())
		}
	}
	// Hand-written text that is not a valid literal is taken verbatim, and
	// from there on round-trips like any other value.
	for src, want := range map[string]string{
		"a \"x\ny\"":    "x\ny",
		`a "x\qy"`:      `x\qy`,
		`a "tab\there"`: "tab\there",
		`a "q\"uote\d"`: `q\"uote\d`,
	} {
		doc, err := ParseParen(src)
		if err != nil {
			t.Fatalf("ParseParen(%q): %v", src, err)
		}
		if doc.Root.Value != want {
			t.Errorf("ParseParen(%q) value %q, want %q", src, doc.Root.Value, want)
		}
		if back, err := ParseParen(doc.Root.String()); err != nil || back.Root.Value != want {
			t.Errorf("%q does not round-trip: %v", src, err)
		}
	}
}

func TestFindByID(t *testing.T) {
	doc := MustParseParen(`a(b(c d) e)`)
	for _, n := range doc.Nodes() {
		if got := doc.FindByID(n.ID); got != n {
			t.Fatalf("FindByID(%s) = %v, want %v", n.ID, got, n)
		}
	}
	if doc.FindByID(nodeid.New(1, 9)) != nil {
		t.Error("FindByID of missing node should be nil")
	}
	if doc.FindByID(nil) != nil {
		t.Error("FindByID(null) should be nil")
	}
}

func TestSubtree(t *testing.T) {
	doc := MustParseParen(`a(b(x "9" y) c)`)
	b := doc.Root.Children[0]
	sub := b.Subtree()
	if sub.Root.Label != "b" || sub.Root.ID.String() != "1" {
		t.Fatalf("subtree root wrong: %v %v", sub.Root.Label, sub.Root.ID)
	}
	if sub.Size() != 3 {
		t.Fatalf("subtree size = %d, want 3", sub.Size())
	}
	// Mutating the copy must not affect the original.
	sub.Root.Children[0].Value = "changed"
	if b.Children[0].Value != "9" {
		t.Fatal("Subtree shares nodes with original")
	}
}

func TestNodesDocumentOrder(t *testing.T) {
	doc := MustParseParen(`a(b(c) d(e f))`)
	nodes := doc.Nodes()
	var labels []string
	for _, n := range nodes {
		labels = append(labels, n.Label)
	}
	if got := strings.Join(labels, ""); got != "abcdef" {
		t.Fatalf("document order = %s, want abcdef", got)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID.Compare(nodes[i].ID) >= 0 {
			t.Fatalf("IDs not increasing at %d: %s >= %s", i, nodes[i-1].ID, nodes[i].ID)
		}
	}
}
