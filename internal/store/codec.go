// Package store implements the persistent view storage engine: a
// versioned binary columnar segment format for nrel.Relation extents and a
// JSON catalog manifest describing a directory of stored views.
//
// A segment holds one flat view extent, one file per view. The layout is
// columnar: a header block (column names, row count) followed by one block
// per column. Each block is length-prefixed and CRC-checksummed, so
// truncation and corruption are detected at open time. Inside a column
// block, values are grouped by kind: structural (Dewey) identifiers are
// delta-encoded as varints against the previous identifier in the column,
// string values are dictionary-encoded, content subtrees are serialized
// preorder against a local label/value dictionary, and nested tables
// recurse into the same relation encoding. See docs/format.md for the byte
// layout.
//
// Beside segments the directory holds the source document as a checkpoint
// segment and an append-only, CRC-framed update log of the epochs
// committed since (updatelog.go). Every write to the directory goes
// through one small file-system seam (fsys.go), which the crash-point
// tests replace to cut the power after each operation.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/xmltree"
)

// Magic identifies a segment file; Version is the format version encoded
// after it. Version 2 marks the caret (ORDPATH-style) reinterpretation of
// Dewey components — odd components terminate levels — under which
// version-1 segments' sequential ordinals would be silently misread, so
// they are refused. Version 3 appends a zone-map block after the column
// blocks; the column encoding is unchanged, so decoders accept versions 2
// (no zones) through 3 and writers always emit the current version.
const (
	Magic   = "XVSG"
	Version = 3
	// MinReadVersion is the oldest segment version decoders accept.
	MinReadVersion = 2
)

// EncodeRelation serializes a relation into the segment byte format
// (including magic and version). Nested tables are encoded recursively.
// The trailing block is the zone map (see blocks.go).
func EncodeRelation(r *nrel.Relation) []byte {
	var out []byte
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = appendBlock(out, encodeHeader(r))
	for j := range r.Cols {
		out = appendBlock(out, encodeColumn(r, j))
	}
	out = appendBlock(out, encodeZoneMap(r))
	return out
}

// appendBlock writes uvarint(len(payload)) + crc32(payload) + payload.
func appendBlock(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func encodeHeader(r *nrel.Relation) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(r.Cols)))
	for _, c := range r.Cols {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Rows)))
	return b
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeColumn serializes column j of the relation: the per-row kind
// stream, then the ID, string, content and table sections in that order.
func encodeColumn(r *nrel.Relation, j int) []byte {
	var b []byte
	for _, row := range r.Rows {
		b = append(b, byte(row[j].Kind))
	}
	// Structural IDs: delta against the previous ID in the column (shared
	// prefix length + new suffix components). Dewey IDs in document order
	// share long prefixes, so this is compact.
	var prev nodeid.ID
	for _, row := range r.Rows {
		if row[j].Kind != nrel.KindID {
			continue
		}
		id := row[j].ID
		shared := commonPrefix(prev, id)
		b = binary.AppendUvarint(b, uint64(shared))
		b = binary.AppendUvarint(b, uint64(len(id)-shared))
		for _, c := range id[shared:] {
			b = binary.AppendUvarint(b, uint64(c))
		}
		prev = id
	}
	// Strings: dictionary in first-occurrence order, then per-row indexes.
	dict := map[string]int{}
	var entries []string
	for _, row := range r.Rows {
		if row[j].Kind != nrel.KindString {
			continue
		}
		if _, ok := dict[row[j].Str]; !ok {
			dict[row[j].Str] = len(entries)
			entries = append(entries, row[j].Str)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, s := range entries {
		b = appendString(b, s)
	}
	for _, row := range r.Rows {
		if row[j].Kind == nrel.KindString {
			b = binary.AppendUvarint(b, uint64(dict[row[j].Str]))
		}
	}
	// Content subtrees.
	for _, row := range r.Rows {
		if row[j].Kind != nrel.KindContent {
			continue
		}
		if row[j].Content == nil || row[j].Content.Root == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = encodeTree(b, row[j].Content.Root)
	}
	// Nested tables: recursive relation encoding, length-prefixed.
	for _, row := range r.Rows {
		if row[j].Kind != nrel.KindTable {
			continue
		}
		if row[j].Table == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		sub := EncodeRelation(row[j].Table)
		b = binary.AppendUvarint(b, uint64(len(sub)))
		b = append(b, sub...)
	}
	return b
}

// encodeTree serializes a content subtree preorder against a local
// label/value dictionary. Node IDs normally follow the Dewey invariant
// (child i's ID is parent.ID.Child(i+1)), in which case a single flag byte
// marks the ID as derived; IDs that break the invariant are stored
// explicitly, as is the subtree root's.
func encodeTree(b []byte, root *xmltree.Node) []byte {
	dict := map[string]int{}
	var entries []string
	intern := func(s string) {
		if _, ok := dict[s]; !ok {
			dict[s] = len(entries)
			entries = append(entries, s)
		}
	}
	count := 0
	root.Walk(func(n *xmltree.Node) bool {
		intern(n.Label)
		intern(n.Value)
		count++
		return true
	})
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, s := range entries {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(count))
	var write func(n *xmltree.Node, derivedID nodeid.ID) []byte
	write = func(n *xmltree.Node, derivedID nodeid.ID) []byte {
		b = binary.AppendUvarint(b, uint64(dict[n.Label]))
		b = binary.AppendUvarint(b, uint64(dict[n.Value]))
		b = appendZigzag(b, int64(n.PathID))
		if derivedID != nil && n.ID.Equal(derivedID) {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(n.ID)))
			for _, c := range n.ID {
				b = binary.AppendUvarint(b, uint64(c))
			}
		}
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
		for i, c := range n.Children {
			b = write(c, n.ID.Child(uint32(i+1)))
		}
		return b
	}
	return write(root, nil)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

func commonPrefix(a, b nodeid.ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// reader is a bounds-checked cursor over segment bytes. All decode errors
// are sticky: once corrupt, every later read reports the same failure.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (rd *reader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("store: "+format, args...)
	}
}

func (rd *reader) bytes(n int) []byte {
	if rd.err != nil {
		return nil
	}
	if n < 0 || rd.pos+n > len(rd.data) {
		rd.fail("truncated segment at offset %d (need %d bytes)", rd.pos, n)
		return nil
	}
	out := rd.data[rd.pos : rd.pos+n]
	rd.pos += n
	return out
}

func (rd *reader) byte() byte {
	b := rd.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (rd *reader) u16() uint16 {
	b := rd.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (rd *reader) u32() uint32 {
	b := rd.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (rd *reader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.data[rd.pos:])
	if n <= 0 {
		rd.fail("invalid varint at offset %d", rd.pos)
		return 0
	}
	rd.pos += n
	return v
}

// length reads a uvarint meant to size an allocation or slice and rejects
// values that cannot fit in the remaining input (corruption guard).
func (rd *reader) length() int {
	v := rd.uvarint()
	if rd.err == nil && v > uint64(len(rd.data)-rd.pos) {
		rd.fail("implausible length %d at offset %d", v, rd.pos)
		return 0
	}
	return int(v)
}

func (rd *reader) zigzag() int64 {
	u := rd.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (rd *reader) string() string {
	n := rd.length()
	return string(rd.bytes(n))
}

// block reads a length-prefixed, CRC-checked block payload.
func (rd *reader) block() *reader {
	n := rd.length()
	if rd.err != nil {
		return &reader{err: rd.err}
	}
	want := rd.u32()
	payload := rd.bytes(n)
	if rd.err != nil {
		return &reader{err: rd.err}
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		rd.fail("block checksum mismatch (got %08x, want %08x)", got, want)
		return &reader{err: rd.err}
	}
	return &reader{data: payload}
}

// DecodeRelation parses segment bytes produced by EncodeRelation,
// verifying magic, version and every block checksum.
func DecodeRelation(data []byte) (*nrel.Relation, error) {
	r, _, err := decodeSegment(data, nil)
	return r, err
}

// DecodeRelationZones is DecodeRelation plus the segment's persisted zone
// map; the zone map is nil for version-2 segments, which predate zones.
func DecodeRelationZones(data []byte) (*nrel.Relation, *ZoneMap, error) {
	return decodeSegment(data, nil)
}

// DecodeRelationCols decodes only the named columns of a segment: the
// payloads of unprojected column blocks are CRC-verified but never decoded
// (no string, content or nested-table materialization). The returned
// relation holds the projected columns in segment order; a requested
// column the segment lacks is an error.
func DecodeRelationCols(data []byte, cols []string) (*nrel.Relation, error) {
	keep := make(map[string]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	r, _, err := decodeSegment(data, keep)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if r.ColIndex(c) < 0 {
			return nil, fmt.Errorf("store: segment has no column %q", c)
		}
	}
	return r, nil
}

// decodeSegment is the shared decode path: keep == nil decodes every
// column, otherwise only columns whose name keep maps to true (the rest
// are checksum-verified and skipped). The zone map is returned for
// version-3 segments, restricted to the decoded columns.
func decodeSegment(data []byte, keep map[string]bool) (*nrel.Relation, *ZoneMap, error) {
	rd := &reader{data: data}
	if string(rd.bytes(len(Magic))) != Magic {
		if rd.err != nil {
			return nil, nil, rd.err
		}
		return nil, nil, fmt.Errorf("store: bad magic (not a segment)")
	}
	ver := rd.u16()
	if rd.err != nil {
		return nil, nil, rd.err
	}
	if ver < MinReadVersion || ver > Version {
		return nil, nil, fmt.Errorf("store: unsupported segment version %d (want %d..%d)", ver, MinReadVersion, Version)
	}
	hdr := rd.block()
	ncols := hdr.length()
	cols := make([]string, 0, ncols)
	for i := 0; i < ncols; i++ {
		cols = append(cols, hdr.string())
	}
	// Row data lives in the column blocks, so the header reader cannot
	// bound nrows by its own payload; each column block spends at least one
	// kind byte per row, so the whole input bounds it instead.
	nrows := int(hdr.uvarint())
	if hdr.err != nil {
		return nil, nil, hdr.err
	}
	// Every column block spends at least one kind byte per row, so the
	// whole input also bounds the tuple-allocation product ncols*nrows —
	// without this a small crafted header could demand terabytes.
	if ncols > 0 && (nrows > len(data) || uint64(nrows)*uint64(ncols) > uint64(len(data))) {
		return nil, nil, fmt.Errorf("store: implausible size %d rows x %d cols for %d-byte segment", nrows, ncols, len(data))
	}
	const maxColumnlessRows = 1 << 20
	if ncols == 0 && nrows > maxColumnlessRows {
		return nil, nil, fmt.Errorf("store: implausible row count %d for zero-column segment", nrows)
	}
	// colMap maps segment column position to output position, -1 to skip.
	colMap := make([]int, ncols)
	var outCols []string
	for j, c := range cols {
		if keep != nil && !keep[c] {
			colMap[j] = -1
			continue
		}
		colMap[j] = len(outCols)
		outCols = append(outCols, c)
	}
	r := nrel.NewRelation(outCols...)
	r.Rows = make([]nrel.Tuple, nrows)
	for i := range r.Rows {
		r.Rows[i] = make(nrel.Tuple, len(outCols))
	}
	for j := 0; j < ncols; j++ {
		cb := rd.block()
		if colMap[j] < 0 {
			// Skipped projection: the block() call above already verified
			// the payload checksum, so corruption is still detected.
			if cb.err != nil {
				return nil, nil, cb.err
			}
			continue
		}
		if err := decodeColumn(cb, r, colMap[j]); err != nil {
			return nil, nil, fmt.Errorf("column %q: %w", cols[j], err)
		}
	}
	if rd.err != nil {
		return nil, nil, rd.err
	}
	var zm *ZoneMap
	if ver >= 3 {
		zb := rd.block()
		if zb.err != nil {
			return nil, nil, fmt.Errorf("zone map: %w", zb.err)
		}
		full, err := decodeZoneMap(zb, ncols, nrows)
		if err != nil {
			return nil, nil, err
		}
		zm = &ZoneMap{BlockRows: full.BlockRows, Cols: make([][]Zone, len(outCols))}
		for j := 0; j < ncols; j++ {
			if colMap[j] >= 0 {
				zm.Cols[colMap[j]] = full.Cols[j]
			}
		}
	}
	return r, zm, nil
}

func decodeColumn(rd *reader, r *nrel.Relation, j int) error {
	kinds := rd.bytes(len(r.Rows))
	for i := range r.Rows {
		if rd.err != nil {
			return rd.err
		}
		k := nrel.Kind(kinds[i])
		if k < nrel.KindNull || k > nrel.KindTable {
			return fmt.Errorf("store: invalid value kind %d in row %d", k, i)
		}
		r.Rows[i][j].Kind = k
	}
	var prev nodeid.ID
	for i := range r.Rows {
		if r.Rows[i][j].Kind != nrel.KindID {
			continue
		}
		shared := int(rd.uvarint())
		extra := int(rd.uvarint())
		if rd.err != nil {
			return rd.err
		}
		if shared > len(prev) || extra > len(rd.data)-rd.pos {
			return fmt.Errorf("store: corrupt ID delta in row %d", i)
		}
		id := make(nodeid.ID, 0, shared+extra)
		id = append(id, prev[:shared]...)
		for k := 0; k < extra; k++ {
			id = append(id, uint32(rd.uvarint()))
		}
		if rd.err != nil {
			return rd.err
		}
		if len(id) == 0 {
			id = nil
		}
		r.Rows[i][j].ID = id
		prev = id
	}
	ndict := rd.length()
	dict := make([]string, 0, ndict)
	for i := 0; i < ndict; i++ {
		dict = append(dict, rd.string())
	}
	for i := range r.Rows {
		if r.Rows[i][j].Kind != nrel.KindString {
			continue
		}
		idx := rd.uvarint()
		if rd.err != nil {
			return rd.err
		}
		if idx >= uint64(len(dict)) {
			return fmt.Errorf("store: string dictionary index %d out of range (dict size %d)", idx, len(dict))
		}
		r.Rows[i][j].Str = dict[idx]
	}
	for i := range r.Rows {
		if r.Rows[i][j].Kind != nrel.KindContent {
			continue
		}
		if rd.byte() == 0 {
			continue
		}
		root, err := decodeTree(rd)
		if err != nil {
			return err
		}
		r.Rows[i][j].Content = &xmltree.Document{Root: root}
	}
	for i := range r.Rows {
		if r.Rows[i][j].Kind != nrel.KindTable {
			continue
		}
		if rd.byte() == 0 {
			continue
		}
		n := rd.length()
		sub := rd.bytes(n)
		if rd.err != nil {
			return rd.err
		}
		t, err := DecodeRelation(sub)
		if err != nil {
			return fmt.Errorf("nested table in row %d: %w", i, err)
		}
		r.Rows[i][j].Table = t
	}
	return rd.err
}

func decodeTree(rd *reader) (*xmltree.Node, error) {
	ndict := rd.length()
	dict := make([]string, 0, ndict)
	for i := 0; i < ndict; i++ {
		dict = append(dict, rd.string())
	}
	total := rd.length()
	if rd.err != nil {
		return nil, rd.err
	}
	read := 0
	lookup := func(idx uint64) string {
		if idx >= uint64(len(dict)) {
			rd.fail("tree dictionary index %d out of range", idx)
			return ""
		}
		return dict[idx]
	}
	var decode func(parent *xmltree.Node, derivedID nodeid.ID) *xmltree.Node
	decode = func(parent *xmltree.Node, derivedID nodeid.ID) *xmltree.Node {
		if rd.err != nil {
			return nil
		}
		if read >= total {
			rd.fail("tree node count overflow (declared %d)", total)
			return nil
		}
		read++
		n := &xmltree.Node{Parent: parent}
		n.Label = lookup(rd.uvarint())
		n.Value = lookup(rd.uvarint())
		n.PathID = int(rd.zigzag())
		switch rd.byte() {
		case 0:
			n.ID = derivedID
		default:
			nc := rd.length()
			id := make(nodeid.ID, 0, nc)
			for i := 0; i < nc; i++ {
				id = append(id, uint32(rd.uvarint()))
			}
			if len(id) > 0 {
				n.ID = id
			}
		}
		nch := rd.length()
		for i := 0; i < nch; i++ {
			c := decode(n, n.ID.Child(uint32(i+1)))
			if rd.err != nil {
				return nil
			}
			n.Children = append(n.Children, c)
		}
		return n
	}
	root := decode(nil, nil)
	if rd.err != nil {
		return nil, rd.err
	}
	if read != total {
		return nil, fmt.Errorf("store: tree node count mismatch (declared %d, read %d)", total, read)
	}
	return root, nil
}
