package store

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
)

// toV2Segment rewrites a current-version segment into the version-2 layout
// older stores produced: the trailing zone-map block is dropped and the
// version field patched back, leaving the column encoding untouched.
func toV2Segment(t testing.TB, data []byte) []byte {
	t.Helper()
	rd := &reader{data: data}
	rd.bytes(len(Magic))
	rd.u16()
	hdr := rd.block()
	ncols := hdr.length()
	if hdr.err != nil {
		t.Fatalf("parsing header: %v", hdr.err)
	}
	for j := 0; j < ncols; j++ {
		rd.block()
	}
	if rd.err != nil {
		t.Fatalf("walking column blocks: %v", rd.err)
	}
	out := append([]byte(nil), data[:rd.pos]...)
	binary.LittleEndian.PutUint16(out[len(Magic):], 2)
	return out
}

// corruptColumnBlock replaces column j's block payload with garbage of the
// same length and fixes the checksum, so the block passes CRC but can no
// longer be decoded. Projection must still read the other columns.
func corruptColumnBlock(t *testing.T, data []byte, j int) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	rd := &reader{data: out}
	rd.bytes(len(Magic))
	rd.u16()
	rd.block() // header
	for skip := 0; skip < j; skip++ {
		rd.block()
	}
	n := rd.length()
	crcPos := rd.pos
	rd.u32()
	payloadPos := rd.pos
	if rd.bytes(n) == nil {
		t.Fatalf("locating column block %d: %v", j, rd.err)
	}
	for i := payloadPos; i < payloadPos+n; i++ {
		out[i] = 0xFF // 0xFF is not a valid value kind, so decode must fail
	}
	binary.LittleEndian.PutUint32(out[crcPos:], crc32.ChecksumIEEE(out[payloadPos:payloadPos+n]))
	return out
}

// TestV2SegmentStillReads pins backward compatibility: a version-2 segment
// (no zone-map block) decodes to the same relation, with a nil zone map,
// through both the byte and the file entry points.
func TestV2SegmentStillReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		r := randomRelation(rng, rng.Intn(30), 1)
		v2 := toV2Segment(t, EncodeRelation(r))
		got, zm, err := DecodeRelationZones(v2)
		if err != nil {
			t.Fatalf("trial %d: decoding v2 segment: %v", trial, err)
		}
		if zm != nil {
			t.Fatalf("trial %d: v2 segment produced a zone map", trial)
		}
		if !got.EqualAsSet(r) {
			t.Fatalf("trial %d: v2 decode changed the relation", trial)
		}
	}

	r := randomRelation(rng, 20, 1)
	path := filepath.Join(t.TempDir(), "v2.xvsg")
	if err := writeFileAtomic(path, toV2Segment(t, EncodeRelation(r))); err != nil {
		t.Fatal(err)
	}
	got, zm, err := ReadFileZones(path)
	if err != nil {
		t.Fatal(err)
	}
	if zm != nil {
		t.Fatal("ReadFileZones returned zones for a v2 file")
	}
	if !got.EqualAsSet(r) {
		t.Fatal("ReadFileZones changed the relation")
	}
	// The block-handle fallback recomputes zones when the file had none.
	b := BlocksFromRelation(got, zm)
	if b.SeededZones {
		t.Fatal("fallback handle claims seeded zones")
	}
	if len(b.columns) != len(r.Cols) {
		t.Fatalf("handle has %d columns, want %d", len(b.columns), len(r.Cols))
	}
}

// TestProjectedDecodeSkipsPayloads proves unprojected columns are never
// decoded: a segment whose content column payload is garbage (with a valid
// checksum) fails a full decode but reads fine when the projection leaves
// that column out.
func TestProjectedDecodeSkipsPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRelation(rng, 25, 1)
	data := EncodeRelation(r)
	contentCol := 3 // "s0.c" in randomRelation's layout
	bad := corruptColumnBlock(t, data, contentCol)

	if _, err := DecodeRelation(bad); err == nil {
		t.Fatal("full decode accepted a garbage column payload")
	}
	got, err := DecodeRelationCols(bad, []string{"s0.id", "s0.l"})
	if err != nil {
		t.Fatalf("projected decode: %v", err)
	}
	if !reflect.DeepEqual(got.Cols, []string{"s0.id", "s0.l"}) {
		t.Fatalf("projected cols = %v", got.Cols)
	}
	if got.Len() != r.Len() {
		t.Fatalf("projected rows = %d, want %d", got.Len(), r.Len())
	}
	idIdx, lIdx := r.ColIndex("s0.id"), r.ColIndex("s0.l")
	for i, row := range got.Rows {
		if !row[0].Equal(r.Rows[i][idIdx]) || !row[1].Equal(r.Rows[i][lIdx]) {
			t.Fatalf("projected row %d differs", i)
		}
	}

	// A CRC-failing payload is still rejected even when skipped.
	noCRCFix := append([]byte(nil), data...)
	rd := &reader{data: noCRCFix}
	rd.bytes(len(Magic))
	rd.u16()
	rd.block()
	for skip := 0; skip < contentCol; skip++ {
		rd.block()
	}
	n := rd.length()
	rd.u32()
	payloadPos := rd.pos
	if rd.bytes(n) == nil || n == 0 {
		t.Fatalf("locating content block: err=%v len=%d", rd.err, n)
	}
	noCRCFix[payloadPos] ^= 0xFF
	if _, err := DecodeRelationCols(noCRCFix, []string{"s0.id"}); err == nil {
		t.Fatal("projection skipped a corrupt block without checking its CRC")
	}

	if _, err := DecodeRelationCols(data, []string{"nope"}); err == nil {
		t.Fatal("projection onto a missing column must error")
	}

	// File-level projection: same segment through ReadFileCols and ScanCols.
	path := filepath.Join(t.TempDir(), "seg.xvsg")
	if err := writeFileAtomic(path, bad); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadFileCols(path, []string{"s0.id", "s0.l"})
	if err != nil {
		t.Fatalf("ReadFileCols: %v", err)
	}
	if !fromFile.EqualAsSet(got) {
		t.Fatal("ReadFileCols differs from DecodeRelationCols")
	}
	rows := 0
	err = ScanCols(path, []string{"s0.l"}, func(cols []string, row nrel.Tuple) error {
		if len(cols) != 1 || cols[0] != "s0.l" || len(row) != 1 {
			t.Fatalf("ScanCols shape: cols=%v row len=%d", cols, len(row))
		}
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("ScanCols: %v", err)
	}
	if rows != r.Len() {
		t.Fatalf("ScanCols visited %d rows, want %d", rows, r.Len())
	}
}

// TestZoneOverlapsRange pins the half-open [lo, hi) skip predicate under
// caret (ORDPATH-style) IDs.
func TestZoneOverlapsRange(t *testing.T) {
	id := func(cs ...uint32) nodeid.ID { return nodeid.ID(cs) }
	z := Zone{hasID: true, minID: id(1, 4), maxID: id(1, 8, 2)}
	cases := []struct {
		name        string
		lo, hi      nodeid.ID
		hiUnbounded bool
		want        bool
	}{
		{"range inside zone", id(1, 5), id(1, 6), false, true},
		{"zone inside range", id(1), id(2), false, true},
		{"range entirely below", id(1, 1), id(1, 4), false, false},
		{"range entirely above", id(1, 8, 3), id(2), false, false},
		{"lo equals max is inclusive", id(1, 8, 2), id(2), false, true},
		{"hi equals min is exclusive", id(1, 1), id(1, 4), false, false},
		{"unbounded high end", id(1, 5), nil, true, true},
		{"unbounded but below min still skips", id(1, 9), nil, true, false},
		{"prefix lo covers descendants", id(1, 8), id(1, 9), false, true},
	}
	for _, tc := range cases {
		if got := z.OverlapsRange(tc.lo, tc.hi, tc.hiUnbounded); got != tc.want {
			t.Errorf("%s: OverlapsRange(%v, %v, %v) = %v, want %v",
				tc.name, tc.lo, tc.hi, tc.hiUnbounded, got, tc.want)
		}
	}
	idless := Zone{}
	if idless.OverlapsRange(nil, nil, true) {
		t.Error("a zone without IDs can never overlap an ID range")
	}
}

func TestZoneHasCode(t *testing.T) {
	z := Zone{codes: []uint32{0, 3, 7, 100}}
	for _, c := range []uint32{0, 3, 7, 100} {
		if !z.HasCode(c) {
			t.Errorf("HasCode(%d) = false, want true", c)
		}
	}
	for _, c := range []uint32{1, 2, 4, 99, 101} {
		if z.HasCode(c) {
			t.Errorf("HasCode(%d) = true, want false", c)
		}
	}
	if (Zone{}).HasCode(0) {
		t.Error("empty zone claims a code")
	}
}

// TestPersistedZonesEqualRecomputed pins that the zone map a segment
// persists is exactly what a fresh recomputation over the decoded rows
// produces — the dictionary-code agreement the vectorized path relies on.
func TestPersistedZonesEqualRecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		// Spread rows across several blocks so multi-block zones are hit.
		nrows := BlockRows/2 + rng.Intn(3*BlockRows)
		r := nrel.NewRelation("id", "label")
		for i := 0; i < nrows; i++ {
			row := make(nrel.Tuple, 2)
			if rng.Intn(5) == 0 {
				row[0] = nrel.Null()
			} else {
				row[0] = nrel.ID(nodeid.Root().Child(uint32(1 + i)))
			}
			row[1] = nrel.String(strings.Repeat("l", rng.Intn(6)))
			r.Append(row)
		}
		rel, zm, err := DecodeRelationZones(EncodeRelation(r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if zm == nil {
			t.Fatalf("trial %d: current-version segment has no zone map", trial)
		}
		seeded := BlocksFromRelation(rel, zm)
		if !seeded.SeededZones {
			t.Fatalf("trial %d: matching seed not used", trial)
		}
		recomputed := BlocksFromRelation(rel, nil)
		if recomputed.SeededZones {
			t.Fatalf("trial %d: nil seed marked as seeded", trial)
		}
		for j := range seeded.columns {
			if !reflect.DeepEqual(seeded.columns[j].zones, recomputed.columns[j].zones) {
				t.Fatalf("trial %d: column %d persisted zones differ from recomputed\n%v\nvs\n%v",
					trial, j, seeded.columns[j].zones, recomputed.columns[j].zones)
			}
		}
	}
}

// TestBlocksSeedRejectsShapeMismatch pins that a stale seed (wrong block
// count after rows changed) falls back to recomputation.
func TestBlocksSeedRejectsShapeMismatch(t *testing.T) {
	r := nrel.NewRelation("id")
	for i := 0; i < BlockRows+10; i++ {
		r.Append(nrel.Tuple{nrel.ID(nodeid.Root().Child(uint32(i + 1)))})
	}
	_, zm, err := DecodeRelationZones(EncodeRelation(r))
	if err != nil || zm == nil {
		t.Fatalf("zone map: %v", err)
	}
	// Shrink the relation past a block boundary: the seed no longer fits.
	r.Rows = r.Rows[:BlockRows-1]
	b := BlocksFromRelation(r, zm)
	if b.SeededZones {
		t.Fatal("shape-mismatched seed was accepted")
	}
	if got := len(b.columns[0].zones); got != 1 {
		t.Fatalf("recomputed zones = %d blocks, want 1", got)
	}
}
