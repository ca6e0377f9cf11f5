package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/xmltree"
)

// The golden corpus in testdata/ pins the wire formats by behaviour: a
// checked-in segment of every readable version and a manifest of every
// readable catalog version must keep decoding to the same values, and the
// current encoder must keep producing the current golden byte for byte.
// A changed wire byte fails here; a changed comment does not.
//
// The files are frozen. When Version or CatalogVersion is bumped, add the
// new version's file next to these (written once from the new encoder)
// and keep the old ones for as long as MinReadVersion / MinCatalogVersion
// admit them.

// goldenRelation is the extent golden-v2.xvs and golden-v3.xvs encode: two
// blocks of rows with an ID column, a small label dictionary, a value
// column with nulls and a sparse content column.
func goldenRelation() *nrel.Relation {
	r := nrel.NewRelation("s0.id", "s0.l", "s1.v", "s1.c")
	labels := []string{"item", "name", "bid"}
	for i := 0; i < BlockRows+6; i++ {
		row := nrel.Tuple{
			nrel.ID(nodeid.Root().Child(uint32(1 + 2*(i/7))).Child(uint32(1 + 2*(i%7)))),
			nrel.String(labels[i%3]),
			nrel.Null(),
			nrel.Null(),
		}
		if i%4 != 0 {
			row[2] = nrel.String(fmt.Sprintf("v%d", i%11))
		}
		if i%5 == 0 {
			row[3] = nrel.Content(xmltree.MustParseParen(fmt.Sprintf(`name(first "n%d")`, i%3)))
		}
		r.Append(row)
	}
	return r
}

func TestGoldenSegments(t *testing.T) {
	want := goldenRelation()
	current, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden-v%d.xvs", Version)))
	if err != nil {
		t.Fatalf("no golden segment for the current Version %d: %v", Version, err)
	}
	for _, tc := range []struct {
		file  string
		ver   uint16
		zones bool // the file carries a persisted zone map
	}{
		{"golden-v2.xvs", 2, false},
		{"golden-v3.xvs", 3, true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint16(data[len(Magic):]); got != tc.ver {
				t.Fatalf("file carries version %d, want %d", got, tc.ver)
			}
			rel, zm, err := DecodeRelationZones(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			assertSameRelation(t, rel, want)
			if (zm != nil) != tc.zones {
				t.Fatalf("zone map present = %v, want %v", zm != nil, tc.zones)
			}
			// Persisted zones seed the block handle and equal the zones
			// recomputed from the rows.
			seeded, fresh := BlocksFromRelation(rel, zm), BlocksFromRelation(rel, nil)
			if seeded.SeededZones != tc.zones {
				t.Fatalf("SeededZones = %v, want %v", seeded.SeededZones, tc.zones)
			}
			for j := range fresh.columns {
				if !reflect.DeepEqual(seeded.columns[j].zones, fresh.columns[j].zones) {
					t.Fatalf("column %d: persisted zones differ from recomputed ones", j)
				}
			}
			if got := seeded.NumBlocks(); got != 2 {
				t.Fatalf("%d blocks, want 2", got)
			}
			if !bytes.Equal(EncodeRelation(rel), current) {
				t.Fatalf("re-encoding the decoded relation is not byte-identical to golden-v%d.xvs", Version)
			}
		})
	}
	for _, ver := range []uint16{MinReadVersion - 1, Version + 1} {
		bad := append([]byte(nil), current...)
		binary.LittleEndian.PutUint16(bad[len(Magic):], ver)
		if _, err := DecodeRelation(bad); err == nil || !strings.Contains(err.Error(), "unsupported segment version") {
			t.Errorf("segment version %d not refused: %v", ver, err)
		}
	}
}

func TestGoldenCatalogs(t *testing.T) {
	open := func(t *testing.T, data []byte) (*Catalog, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenCatalog(dir)
	}
	var current []byte
	// Before version 4 the document segment was rewritten by every commit:
	// those manifests read back with the document current at the catalog
	// epoch. Version 4 records the checkpoint's own epoch. Version 5
	// entries carry no delta chain.
	chain := []DeltaRef{{Segment: "seg-0000.d0002.xvs"}}
	for _, tc := range []struct {
		file     string
		ver      int
		summary  string
		docSeg   string
		docEpoch int64
		deltas   []DeltaRef
	}{
		{"catalog-v2.json", 2, "site(!item(=name))", "document.xvt", 2, chain},
		{"catalog-v3.json", 3, "site:1:0(!item:3:0(=name:3:7))", "document.xvt", 2, chain},
		{"catalog-v4.json", 4, "site:1:0(!item:3:0(=name:3:7))", "document.c0001.xvt", 1, chain},
		{"catalog-v5.json", 5, "site:1:0(!item:3:0(=name:3:7))", "document.c0001.xvt", 1, nil},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ver == CatalogVersion {
				current = data
			}
			cat, err := open(t, data)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			want := &Catalog{
				FormatVersion: tc.ver,
				Document:      "golden.xml",
				Summary:       tc.summary,
				SummaryHash:   SummaryHash(tc.summary),
				Epoch:         2,
				DocSegment:    tc.docSeg,
				DocEpoch:      tc.docEpoch,
				Views: []Entry{{
					Name:    "V1",
					Pattern: "site(//item[id](/name[v]))",
					Columns: []string{"s0.id", "s1.v"},
					Rows:    3,
					Bytes:   77,
					Segment: "seg-0000.c0001.xvs",
					Deltas:  tc.deltas,
				}},
			}
			if !reflect.DeepEqual(cat, want) {
				t.Fatalf("decoded catalog:\n%+v\nwant:\n%+v", cat, want)
			}
			if tc.ver != CatalogVersion {
				return
			}
			// The current version's manifest is what WriteCatalog produces.
			dir := t.TempDir()
			if err := WriteCatalog(dir, cat); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("WriteCatalog output differs from %s:\n%s", tc.file, got)
			}
		})
	}
	if current == nil {
		t.Fatalf("no golden catalog for the current CatalogVersion %d", CatalogVersion)
	}
	for _, ver := range []int{MinCatalogVersion - 1, CatalogVersion + 1} {
		bad := bytes.Replace(current, []byte(fmt.Sprintf(`"format_version": %d`, CatalogVersion)),
			[]byte(fmt.Sprintf(`"format_version": %d`, ver)), 1)
		if _, err := open(t, bad); err == nil || !strings.Contains(err.Error(), "unsupported catalog version") {
			t.Errorf("catalog version %d not refused: %v", ver, err)
		}
	}
}
