// Columnar block access over relations and segments.
//
// A Blocks handle exposes a relation column-wise, in fixed-size row blocks,
// without materializing per-row strings: each column carries per-row
// dictionary codes (ints) pointing into a per-column dictionary in
// first-occurrence order — the same order encodeColumn persists, so codes
// computed here agree with codes recorded in segment zone maps. Per block
// and column a Zone records the min/max
// structural ID and the sorted set of distinct dictionary codes, letting
// executors skip whole blocks during ID-range probes and dictionary-code
// filters. Zones are persisted at segment-build time (format version 3)
// and recomputed from the rows when a segment predates them.
package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
)

// BlockRows is the number of rows per zone-map block. It is small enough
// that a selective predicate skips most of a large extent and large enough
// that per-block bookkeeping stays negligible next to the row data.
const BlockRows = 1024

// Zone summarizes one block of one column: the lexicographic min/max over
// the block's structural IDs (hasID false when the block holds none) and
// the strictly increasing set of distinct dictionary codes its string rows
// use (empty when the block holds no string rows). A zone is read through
// its methods only: it shares storage with the handle it came from.
type Zone struct {
	hasID bool
	minID nodeid.ID
	maxID nodeid.ID
	codes []uint32
}

// OverlapsRange reports whether the block may hold a structural ID in the
// half-open lexicographic range [lo, hi). An unbounded upper end is passed
// as hiUnbounded. Blocks without IDs never overlap.
func (z Zone) OverlapsRange(lo, hi nodeid.ID, hiUnbounded bool) bool {
	if !z.hasID {
		return false
	}
	if z.maxID.Compare(lo) < 0 {
		return false
	}
	if !hiUnbounded && z.minID.Compare(hi) >= 0 {
		return false
	}
	return true
}

// HasCode reports whether the block's string rows use the dictionary code.
func (z Zone) HasCode(code uint32) bool {
	i := sort.Search(len(z.codes), func(i int) bool { return z.codes[i] >= code })
	return i < len(z.codes) && z.codes[i] == code
}

// AnyCode reports whether the block's string rows use a code whose verdict
// in pass (indexed by code, as Column.EvalDict returns) is true.
func (z Zone) AnyCode(pass []bool) bool {
	for _, code := range z.codes {
		if int(code) < len(pass) && pass[code] {
			return true
		}
	}
	return false
}

// ZoneMap is the persisted zone index of a segment: one Zone per column per
// block of BlockRows rows, in column-major order.
type ZoneMap struct {
	// BlockRows is the block size the zones were computed over (always the
	// package constant for segments this build writes; kept explicit so a
	// future block-size change stays readable).
	BlockRows int
	// Cols holds, per column, one Zone per block.
	Cols [][]Zone
}

// Column is one column of a Blocks handle: per-row dictionary codes plus
// the column's dictionary and zones, readable through its methods only.
type Column struct {
	// codes holds the dictionary code of KindString rows; -1 elsewhere.
	codes []int32
	// dict is the column's string dictionary in first-occurrence order.
	dict []string
	// zones has one entry per block of BlockRows rows.
	zones   []Zone
	dictIdx map[string]int32
}

// Code translates a predicate constant into the column's dictionary once;
// ok is false when the string never occurs in the column.
func (c *Column) Code(s string) (uint32, bool) {
	i, ok := c.dictIdx[s]
	return uint32(i), ok
}

// RowCode returns row i's dictionary code, or -1 when the row holds no
// string.
func (c *Column) RowCode(i int) int32 { return c.codes[i] }

// Zone returns the zone of block bi.
func (c *Column) Zone(bi int) Zone { return c.zones[bi] }

// EvalDict evaluates pred once per dictionary entry and returns the
// verdicts indexed by dictionary code.
func (c *Column) EvalDict(pred func(string) bool) []bool {
	pass := make([]bool, len(c.dict))
	for k, v := range c.dict {
		pass[k] = pred(v)
	}
	return pass
}

// Blocks is a columnar view of a relation, built once and shared by
// concurrent executors; no method writes to it after construction.
type Blocks struct {
	rel     *nrel.Relation
	columns []Column
	// SeededZones records that the zones came from the segment file rather
	// than a recomputation (observable in tests and diagnostics).
	SeededZones bool
}

// Extent returns the backing relation, read-only. Surviving rows are
// late-materialized from it by index, so vectorized and row-at-a-time
// execution share tuple storage.
func (b *Blocks) Extent() nrel.Extent { return b.rel.Extent() }

// Column returns column j, in the backing relation's column order.
func (b *Blocks) Column(j int) *Column { return &b.columns[j] }

// NumBlocks returns the handle's block count.
func (b *Blocks) NumBlocks() int { return numBlocks(len(b.rel.Rows)) }

func numBlocks(nrows int) int { return (nrows + BlockRows - 1) / BlockRows }

// BlocksFromRelation builds a columnar handle over the relation. When seed
// carries the segment's persisted zone map and still matches the relation's
// shape (same block size, column count and block count — updates or
// re-sorts invalidate it), the persisted zones are used; otherwise zones
// are recomputed from the rows.
func BlocksFromRelation(r *nrel.Relation, seed *ZoneMap) *Blocks {
	b := &Blocks{rel: r, columns: make([]Column, len(r.Cols))}
	nb := numBlocks(len(r.Rows))
	useSeed := seed != nil && seed.BlockRows == BlockRows && len(seed.Cols) == len(r.Cols)
	if useSeed {
		for _, zs := range seed.Cols {
			if len(zs) != nb {
				useSeed = false
				break
			}
		}
	}
	for j := range r.Cols {
		c := &b.columns[j]
		c.codes = make([]int32, len(r.Rows))
		c.dictIdx = map[string]int32{}
		for i, row := range r.Rows {
			c.codes[i] = -1
			if v := row[j]; v.Kind == nrel.KindString {
				code, ok := c.dictIdx[v.Str]
				if !ok {
					code = int32(len(c.dict))
					c.dictIdx[v.Str] = code
					c.dict = append(c.dict, v.Str)
				}
				c.codes[i] = code
			}
		}
		if useSeed {
			c.zones = seed.Cols[j]
		} else {
			c.zones = computeZones(r, j, c.codes)
		}
	}
	b.SeededZones = useSeed && len(r.Cols) > 0
	return b
}

// computeZones derives the per-block zones of column j from its rows and
// dictionary codes.
func computeZones(r *nrel.Relation, j int, codes []int32) []Zone {
	zones := make([]Zone, numBlocks(len(r.Rows)))
	for bi := range zones {
		lo, hi := bi*BlockRows, (bi+1)*BlockRows
		if hi > len(r.Rows) {
			hi = len(r.Rows)
		}
		z := &zones[bi]
		seen := map[uint32]bool{}
		for i := lo; i < hi; i++ {
			switch v := r.Rows[i][j]; v.Kind {
			case nrel.KindID:
				if !z.hasID {
					z.hasID, z.minID, z.maxID = true, v.ID, v.ID
					continue
				}
				if v.ID.Compare(z.minID) < 0 {
					z.minID = v.ID
				}
				if v.ID.Compare(z.maxID) > 0 {
					z.maxID = v.ID
				}
			case nrel.KindString:
				seen[uint32(codes[i])] = true
			}
		}
		if len(seen) > 0 {
			z.codes = make([]uint32, 0, len(seen))
			for code := range seen {
				z.codes = append(z.codes, code)
			}
			sort.Slice(z.codes, func(a, b int) bool { return z.codes[a] < z.codes[b] })
		}
	}
	return zones
}

// encodeZoneMap serializes the relation's zone map (recomputed from the
// rows, which reproduces the dictionary codes encodeColumn assigns) as the
// segment's trailing block payload.
func encodeZoneMap(r *nrel.Relation) []byte {
	blocks := BlocksFromRelation(r, nil)
	var b []byte
	b = binary.AppendUvarint(b, uint64(BlockRows))
	b = binary.AppendUvarint(b, uint64(numBlocks(len(r.Rows))))
	for j := range blocks.columns {
		for _, z := range blocks.columns[j].zones {
			if !z.hasID {
				b = append(b, 0)
			} else {
				b = append(b, 1)
				b = appendID(b, z.minID)
				b = appendID(b, z.maxID)
			}
			b = binary.AppendUvarint(b, uint64(len(z.codes)))
			prev := uint64(0)
			for i, code := range z.codes {
				// Codes are strictly increasing: store the first raw, then
				// gaps minus one, so corruption cannot smuggle duplicates in.
				if i == 0 {
					b = binary.AppendUvarint(b, uint64(code))
				} else {
					b = binary.AppendUvarint(b, uint64(code)-prev-1)
				}
				prev = uint64(code)
			}
		}
	}
	return b
}

func appendID(dst []byte, id nodeid.ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	for _, c := range id {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// decodeZoneMap parses a zone-map block payload for a segment with the
// given shape, validating block counts, ID ordering and code monotonicity.
func decodeZoneMap(rd *reader, ncols, nrows int) (*ZoneMap, error) {
	blockRows := int(rd.uvarint())
	nb := int(rd.uvarint())
	if rd.err != nil {
		return nil, rd.err
	}
	if blockRows <= 0 {
		return nil, fmt.Errorf("store: zone map block size %d", blockRows)
	}
	if want := (nrows + blockRows - 1) / blockRows; nb != want {
		return nil, fmt.Errorf("store: zone map has %d blocks, segment shape needs %d", nb, want)
	}
	zm := &ZoneMap{BlockRows: blockRows, Cols: make([][]Zone, ncols)}
	for j := 0; j < ncols; j++ {
		zm.Cols[j] = make([]Zone, nb)
		for bi := 0; bi < nb; bi++ {
			z := &zm.Cols[j][bi]
			switch rd.byte() {
			case 0:
			case 1:
				z.hasID = true
				z.minID = readID(rd)
				z.maxID = readID(rd)
				if rd.err == nil && z.minID.Compare(z.maxID) > 0 {
					return nil, fmt.Errorf("store: zone map min ID after max ID (column %d, block %d)", j, bi)
				}
			default:
				if rd.err == nil {
					return nil, fmt.Errorf("store: zone map ID flag out of range (column %d, block %d)", j, bi)
				}
			}
			ncodes := rd.length()
			if ncodes > 0 {
				z.codes = make([]uint32, 0, ncodes)
				prev := uint64(0)
				for i := 0; i < ncodes; i++ {
					d := rd.uvarint()
					code := d
					if i > 0 {
						code = prev + 1 + d
					}
					if code > uint64(^uint32(0)) {
						return nil, fmt.Errorf("store: zone map code overflow (column %d, block %d)", j, bi)
					}
					z.codes = append(z.codes, uint32(code))
					prev = code
				}
			}
			if rd.err != nil {
				return nil, rd.err
			}
		}
	}
	return zm, nil
}

func readID(rd *reader) nodeid.ID {
	n := rd.length()
	if rd.err != nil || n == 0 {
		return nil
	}
	id := make(nodeid.ID, 0, n)
	for i := 0; i < n; i++ {
		id = append(id, uint32(rd.uvarint()))
	}
	return id
}
