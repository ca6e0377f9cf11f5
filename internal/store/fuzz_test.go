package store

import (
	"bytes"
	"errors"
	"testing"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/xmltree"
)

// fuzzSeedRelation covers every value kind, so mutated encodings reach all
// decoder sections.
func fuzzSeedRelation() *nrel.Relation {
	r := nrel.NewRelation("s0.id", "s0.v", "s0.c", "s1.t")
	sub := nrel.NewRelation("s0.v")
	sub.Append(nrel.Tuple{nrel.String("nested")})
	doc := xmltree.MustParseParen(`a(b "1" c(d))`)
	r.Append(nrel.Tuple{
		nrel.ID(nodeid.New(1, 3, 5)),
		nrel.String("hello"),
		nrel.Content(doc),
		nrel.Table(sub),
	})
	r.Append(nrel.Tuple{nrel.Null(), nrel.String(""), nrel.Null(), nrel.Value{Kind: nrel.KindTable}})
	return r
}

// FuzzSegmentRead asserts the segment decoder rejects arbitrary bytes
// without panicking and without allocation bombs (the plausibility guards
// bound every size field by the input length, so a decode allocates at
// most O(len(input)) tuples). Successful decodes must re-encode.
func FuzzSegmentRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("XVSG"))
	f.Add(EncodeRelation(fuzzSeedRelation()))
	f.Add(EncodeRelation(nrel.NewRelation()))
	f.Add(EncodeRelation(nrel.NewRelation("a", "b")))
	// The version-2 layout (no trailing zone-map block) must stay readable.
	f.Add(toV2Segment(f, EncodeRelation(fuzzSeedRelation())))
	f.Add(toV2Segment(f, EncodeRelation(nrel.NewRelation())))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxInput = 1 << 20
		if len(data) > maxInput {
			return
		}
		rel, err := DecodeRelation(data) // must not panic
		if err != nil {
			return
		}
		// Accepted input: the relation must be internally consistent and
		// survive a re-encode/decode cycle.
		for i, row := range rel.Rows {
			if len(row) != len(rel.Cols) {
				t.Fatalf("row %d has %d values for %d columns", i, len(row), len(rel.Cols))
			}
		}
		back, err := DecodeRelation(EncodeRelation(rel))
		if err != nil {
			t.Fatalf("re-encode of accepted segment does not decode: %v", err)
		}
		if !back.EqualAsSet(rel) {
			t.Fatal("re-encode changed the relation")
		}
	})
}

// FuzzUpdateLogRead asserts the update-log reader never panics on
// arbitrary bytes, returns only a checksummed prefix of them — the
// records re-encode to exactly data[:valid] — and never reports the rest
// as clean: whatever follows the prefix is a torn tail or corruption, and
// no record is decoded out of it.
func FuzzUpdateLogRead(f *testing.F) {
	one := appendLogRecord(nil, 1, []byte(`{"updates":[{"op":"delete","target":"1.3"}]}`))
	two := appendLogRecord(append([]byte(nil), one...), 2, nil)
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])                                 // torn header
	f.Add(append(append([]byte(nil), two...), one[:20]...)) // torn payload
	f.Add(append(append([]byte(nil), one...), make([]byte, 40)...))
	flipped := append([]byte(nil), two...)
	flipped[logHeaderLen+2] ^= 0x40 // bad CRC mid-log
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		recs, valid, tail := DecodeUpdateLog(data) // must not panic
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if (tail == nil) != (valid == int64(len(data))) {
			t.Fatalf("tail %v with %d of %d bytes valid", tail, valid, len(data))
		}
		if tail != nil && !errors.Is(tail, ErrLogTorn) && !errors.Is(tail, ErrLogCorrupt) {
			t.Fatalf("unclassified tail error: %v", tail)
		}
		var again []byte
		for _, r := range recs {
			if r.Offset != int64(len(again)) {
				t.Fatalf("record of epoch %d at offset %d, want %d", r.Epoch, r.Offset, len(again))
			}
			again = appendLogRecord(again, r.Epoch, r.Payload)
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Fatal("decoded records do not re-encode to the valid prefix")
		}
	})
}
