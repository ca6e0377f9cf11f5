package store

import (
	"path/filepath"
	"testing"

	"xmlviews/internal/xmltree"
)

func TestDocumentFileRoundTrip(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen" price "3") item(@id "7" name "ink"))`)
	doc.Name = "test.xml"
	// Give it a careted ID mix by applying updates first.
	if _, err := doc.InsertSubtree(doc.Root.ID, doc.Root.Children[1].ID, xmltree.MustParseParen(`item(name "mid")`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xvt")
	if _, err := WriteDocumentFile(path, doc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != doc.Name {
		t.Fatalf("name = %q, want %q", got.Name, doc.Name)
	}
	if got.Root.String() != doc.Root.String() {
		t.Fatalf("tree changed:\n%s\n%s", got.Root, doc.Root)
	}
	// IDs (including careted ones) and parent pointers must survive.
	want := doc.Nodes()
	have := got.Nodes()
	if len(want) != len(have) {
		t.Fatalf("node count %d != %d", len(have), len(want))
	}
	for i := range want {
		if !want[i].ID.Equal(have[i].ID) {
			t.Fatalf("node %d ID %s != %s", i, have[i].ID, want[i].ID)
		}
		if (have[i].Parent == nil) != (want[i].Parent == nil) {
			t.Fatalf("node %d parent pointer mismatch", i)
		}
	}
}

func TestDocumentDecodeRejectsCorruption(t *testing.T) {
	data := EncodeDocument(xmltree.MustParseParen(`a(b "1" c(d))`))
	for _, n := range []int{0, 3, 5, len(data) / 2, len(data) - 1} {
		if _, err := DecodeDocument(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-2] ^= 0xff
	if _, err := DecodeDocument(mut); err == nil {
		t.Error("payload corruption not detected (CRC should catch it)")
	}
}
