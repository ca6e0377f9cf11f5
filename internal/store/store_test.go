package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/xmltree"
)

// randomRelation builds a relation with mixed-kind columns covering every
// value kind, empty strings, duplicate IDs and null values.
func randomRelation(rng *rand.Rand, nrows int, depth int) *nrel.Relation {
	cols := []string{"s0.id", "s0.l", "s0.v", "s0.c", "t"}
	r := nrel.NewRelation(cols...)
	var prevID nodeid.ID
	for i := 0; i < nrows; i++ {
		row := make(nrel.Tuple, len(cols))
		// ID column: sometimes null, sometimes a duplicate of the previous.
		switch rng.Intn(4) {
		case 0:
			row[0] = nrel.Null()
		case 1:
			if prevID != nil {
				row[0] = nrel.ID(prevID)
				break
			}
			fallthrough
		default:
			id := nodeid.Root()
			for d := rng.Intn(5); d > 0; d-- {
				id = id.Child(uint32(1 + rng.Intn(9)))
			}
			prevID = id
			row[0] = nrel.ID(id)
		}
		// Label column: small vocabulary so the dictionary gets reuse.
		row[1] = nrel.String([]string{"item", "name", "bid", ""}[rng.Intn(4)])
		// Value column: null or a random (possibly empty) string.
		if rng.Intn(3) == 0 {
			row[2] = nrel.Null()
		} else {
			row[2] = nrel.String(strings.Repeat("x", rng.Intn(4)))
		}
		// Content column: null, nil document, or a random subtree.
		switch rng.Intn(3) {
		case 0:
			row[3] = nrel.Null()
		case 1:
			row[3] = nrel.Value{Kind: nrel.KindContent}
		default:
			row[3] = nrel.Content(randomDoc(rng))
		}
		// Table column: null or a nested relation (bounded recursion).
		if depth <= 0 || rng.Intn(2) == 0 {
			row[4] = nrel.Null()
		} else {
			row[4] = nrel.Table(randomRelation(rng, rng.Intn(4), depth-1))
		}
		r.Append(row)
	}
	return r
}

func randomDoc(rng *rand.Rand) *xmltree.Document {
	d := xmltree.NewDocument("root")
	d.Root.Value = "v"
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		if depth <= 0 {
			return
		}
		for i := rng.Intn(3); i > 0; i-- {
			c := n.AddChild([]string{"a", "b", "c"}[rng.Intn(3)], strings.Repeat("y", rng.Intn(3)))
			c.PathID = rng.Intn(10) - 1
			grow(c, depth-1)
		}
	}
	grow(d.Root, 3)
	return d
}

// assertSameRelation checks got reproduces r exactly: same columns, same
// rows in the same order, values comparing Equal and rendering alike.
func assertSameRelation(t *testing.T, got, r *nrel.Relation) {
	t.Helper()
	if len(got.Cols) != len(r.Cols) {
		t.Fatalf("cols: got %v want %v", got.Cols, r.Cols)
	}
	for i, c := range r.Cols {
		if got.Cols[i] != c {
			t.Fatalf("col %d: got %q want %q", i, got.Cols[i], c)
		}
	}
	if got.Len() != r.Len() {
		t.Fatalf("rows: got %d want %d", got.Len(), r.Len())
	}
	for i, row := range r.Rows {
		for j, v := range row {
			if !got.Rows[i][j].Equal(v) {
				t.Fatalf("row %d col %d: got %s want %s", i, j, got.Rows[i][j].Render(), v.Render())
			}
			if got.Rows[i][j].Render() != v.Render() {
				t.Fatalf("row %d col %d render: got %q want %q", i, j, got.Rows[i][j].Render(), v.Render())
			}
		}
	}
}

// assertRoundTrip checks decode(encode(r)) reproduces the relation: the
// re-encoded bytes are byte-identical and values compare Equal.
func assertRoundTrip(t *testing.T, r *nrel.Relation) {
	t.Helper()
	data := EncodeRelation(r)
	got, err := DecodeRelation(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertSameRelation(t, got, r)
	again := EncodeRelation(got)
	if string(again) != string(data) {
		t.Fatalf("re-encoding is not byte-identical (%d vs %d bytes)", len(again), len(data))
	}
}

func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		assertRoundTrip(t, randomRelation(rng, rng.Intn(20), 2))
	}
}

func TestCodecRoundTripEdgeCases(t *testing.T) {
	t.Run("empty relation", func(t *testing.T) {
		assertRoundTrip(t, nrel.NewRelation())
	})
	t.Run("columns no rows", func(t *testing.T) {
		assertRoundTrip(t, nrel.NewRelation("s0.id", "s0.v"))
	})
	t.Run("empty string values", func(t *testing.T) {
		r := nrel.NewRelation("v")
		r.Append(nrel.Tuple{nrel.String("")})
		r.Append(nrel.Tuple{nrel.String("")})
		assertRoundTrip(t, r)
	})
	t.Run("duplicate and null IDs", func(t *testing.T) {
		r := nrel.NewRelation("id")
		id := nodeid.New(1, 2, 3)
		r.Append(nrel.Tuple{nrel.ID(id)})
		r.Append(nrel.Tuple{nrel.ID(id)})
		r.Append(nrel.Tuple{nrel.ID(nil)})
		r.Append(nrel.Tuple{nrel.ID(nodeid.New(1, 2, 4))})
		assertRoundTrip(t, r)
	})
	t.Run("nested empty table", func(t *testing.T) {
		r := nrel.NewRelation("t")
		r.Append(nrel.Tuple{nrel.Table(nrel.NewRelation("x"))})
		r.Append(nrel.Tuple{nrel.Value{Kind: nrel.KindTable}})
		assertRoundTrip(t, r)
	})
}

// TestCodecContentKeepsIDs checks a content subtree that does not start at
// the root (the SubtreeKeepIDs case) round-trips with original Dewey IDs.
func TestCodecContentKeepsIDs(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b(c "1" d) e)`)
	sub := doc.Root.Children[0].SubtreeKeepIDs() // subtree at ID 1.1
	r := nrel.NewRelation("c")
	r.Append(nrel.Tuple{nrel.Content(sub)})
	assertRoundTrip(t, r)
	got, err := DecodeRelation(EncodeRelation(r))
	if err != nil {
		t.Fatal(err)
	}
	root := got.Rows[0][0].Content.Root
	if root.ID.String() != "1.1" {
		t.Fatalf("subtree root ID: got %s want 1.1", root.ID)
	}
	if root.Children[1].ID.String() != "1.1.3" {
		t.Fatalf("child ID: got %s want 1.1.3", root.Children[1].ID)
	}
}

func TestDecodeErrors(t *testing.T) {
	r := nrel.NewRelation("s0.id", "s0.v")
	for i := 0; i < 10; i++ {
		r.Append(nrel.Tuple{nrel.ID(nodeid.New(1, uint32(i+1))), nrel.String("abc")})
	}
	data := EncodeRelation(r)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(Magic), len(Magic) + 1, len(data) / 2, len(data) - 1} {
			if _, err := DecodeRelation(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes not detected", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), data[4:]...)
		if _, err := DecodeRelation(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic not detected: %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[4] = 99
		if _, err := DecodeRelation(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("bad version not detected: %v", err)
		}
	})
	t.Run("bit flip fails CRC", func(t *testing.T) {
		// Flip one byte in every position past the version; every flip must
		// be rejected (checksum, bounds or validation), never silently
		// accepted as a different relation.
		for pos := 6; pos < len(data); pos++ {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x40
			got, err := DecodeRelation(bad)
			if err != nil {
				continue
			}
			if EncodeRelationString(got) != EncodeRelationString(r) {
				t.Fatalf("flip at %d decoded to a different relation without error", pos)
			}
		}
	})
}

// TestDecodeRejectsAllocationBomb feeds a syntactically valid (CRC-correct)
// segment whose header declares a tuple grid far larger than the input;
// decoding must refuse before allocating.
func TestDecodeRejectsAllocationBomb(t *testing.T) {
	var data []byte
	data = append(data, Magic...)
	data = binary.LittleEndian.AppendUint16(data, Version)
	var hdr []byte
	const n = 1 << 16
	hdr = binary.AppendUvarint(hdr, n) // ncols, all with empty names
	for i := 0; i < n; i++ {
		hdr = binary.AppendUvarint(hdr, 0)
	}
	hdr = binary.AppendUvarint(hdr, n) // nrows: n*n values ≫ len(data)
	data = appendBlock(data, hdr)
	if _, err := DecodeRelation(data); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("allocation bomb not rejected: %v", err)
	}
}

// EncodeRelationString is a test helper comparing relations structurally.
func EncodeRelationString(r *nrel.Relation) string {
	return strings.Join(r.Cols, ",") + "\n" + r.String()
}

func TestSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 25, 1)
	path := filepath.Join(dir, "seg.xvs")
	n, err := WriteFile(path, r)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("reported %d bytes, file has %d", n, fi.Size())
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(r) {
		t.Fatal("file round-trip changed the relation")
	}
	rows := 0
	if err := Scan(path, func(cols []string, row nrel.Tuple) error {
		if len(cols) != len(r.Cols) || len(row) != len(cols) {
			t.Fatalf("scan arity mismatch")
		}
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != r.Len() {
		t.Fatalf("scan saw %d rows, want %d", rows, r.Len())
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := &Catalog{
		Document: "auction.xml",
		Summary:  "site(item(name))",
		Views: []Entry{
			{Name: "v1", Pattern: "site(//item[id])", Columns: []string{"s0.id"}, Rows: 3, Bytes: 42, Segment: "seg-0000.xvs"},
		},
	}
	if err := WriteCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	got, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.SummaryHash != SummaryHash("site(item(name))") {
		t.Fatal("summary hash not recorded")
	}
	if e := got.Entry("v1"); e == nil || e.Segment != "seg-0000.xvs" || e.Rows != 3 {
		t.Fatalf("entry mismatch: %+v", e)
	}
	if got.Entry("nope") != nil {
		t.Fatal("unexpected entry")
	}
	t.Run("tampered summary", func(t *testing.T) {
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := strings.Replace(string(data), "site(item(name))", "site(item(age))", 1)
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCatalog(dir); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
			t.Fatalf("tampered summary not detected: %v", err)
		}
	})
}

// TestCatalogVersionRange pins the compatibility policy: version-2
// catalogs (pre-statistics) still open, anything outside [Min, Current]
// is rejected with a version message, not a parse error.
func TestCatalogVersionRange(t *testing.T) {
	dir := t.TempDir()
	cat := &Catalog{Summary: "site(item)"}
	if err := WriteCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	if cat.FormatVersion != CatalogVersion {
		t.Fatalf("written version %d, want %d", cat.FormatVersion, CatalogVersion)
	}
	rewriteVersion := func(v int) {
		t.Helper()
		c := &Catalog{Summary: "site(item)"}
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		s := strings.Replace(string(data), `"format_version": 0`, fmt.Sprintf(`"format_version": %d`, v), 1)
		s = strings.Replace(s, `"summary_hash": ""`, fmt.Sprintf(`"summary_hash": %q`, SummaryHash("site(item)")), 1)
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewriteVersion(MinCatalogVersion)
	if _, err := OpenCatalog(dir); err != nil {
		t.Fatalf("version %d must still open: %v", MinCatalogVersion, err)
	}
	for _, v := range []int{MinCatalogVersion - 1, CatalogVersion + 1} {
		rewriteVersion(v)
		if _, err := OpenCatalog(dir); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d not rejected with a version message: %v", v, err)
		}
	}
}
