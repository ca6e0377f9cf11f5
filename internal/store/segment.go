package store

import (
	"fmt"
	"os"
	"path/filepath"

	"xmlviews/internal/nrel"
)

// WriteFile encodes the relation and atomically writes it as a segment
// file. It returns the segment's size in bytes.
func WriteFile(path string, r *nrel.Relation) (int64, error) {
	data := EncodeRelation(r)
	if err := writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// writeFileAtomic writes data to a temp file in path's directory, syncs
// it, and renames it into place, so a crash never leaves a half-written
// file behind a valid name. Segments and the catalog share this path:
// the catalog is written last and references segments by name, so every
// segment must be durable before its name can appear in a catalog.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.createTemp(dir, ".xvtmp-*")
	if err != nil {
		return err
	}
	if err := writeSyncClose(tmp, data); err != nil {
		_ = fsys.remove(tmp.Name()) // best effort: an orphan temp file is only garbage
		return err
	}
	if err := fsys.rename(tmp.Name(), path); err != nil {
		_ = fsys.remove(tmp.Name()) // as above
		return err
	}
	return fsys.syncDir(dir)
}

// writeSyncClose writes data to f, flushes it to stable storage and closes
// f, on every path. Contents must be flushed before a rename publishes
// them (rename is atomic with respect to the name, not the data) and
// before a catalog that depends on them is written.
func writeSyncClose(f file, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close() //xvlint:errok primary error wins; the caller discards or truncates the file
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //xvlint:errok primary error wins; the caller discards or truncates the file
		return err
	}
	return f.Close()
}

// ReadFile loads a segment file into memory, verifying every block
// checksum, and returns the decoded relation.
func ReadFile(path string) (*nrel.Relation, error) {
	r, _, err := ReadFileZones(path)
	return r, err
}

// ReadFileZones is ReadFile plus the segment's persisted zone map (nil for
// segments written before format version 3).
func ReadFileZones(path string) (*nrel.Relation, *ZoneMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	r, zm, err := DecodeRelationZones(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, zm, nil
}

// ReadFileCols loads only the named columns of a segment file: every block
// is still CRC-verified, but unprojected columns are never decoded — their
// strings, content subtrees and nested tables are not materialized.
func ReadFileCols(path string, cols []string) (*nrel.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeRelationCols(data, cols)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Scan streams the rows of a segment file through fn in storage order,
// stopping at the first error fn returns. The segment is decoded
// column-block by column-block before iteration, so Scan costs one decode
// plus one pass over the rows.
func Scan(path string, fn func(cols []string, row nrel.Tuple) error) error {
	r, err := ReadFile(path)
	if err != nil {
		return err
	}
	return scanRows(r, fn)
}

// ScanCols is Scan restricted to a column projection: rows carry only the
// projected columns (in segment order) and unprojected column payloads are
// never decoded. Old segments without zone maps read via the same path.
func ScanCols(path string, cols []string, fn func(cols []string, row nrel.Tuple) error) error {
	r, err := ReadFileCols(path, cols)
	if err != nil {
		return err
	}
	return scanRows(r, fn)
}

func scanRows(r *nrel.Relation, fn func(cols []string, row nrel.Tuple) error) error {
	for _, row := range r.Rows {
		if err := fn(r.Cols, row); err != nil {
			return err
		}
	}
	return nil
}
