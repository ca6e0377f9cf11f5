package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the catalog manifest's file name inside a store
// directory.
const ManifestName = "catalog.json"

// CatalogVersion is the manifest format version written by this code.
// Version 2 brought the maintenance fields (epoch, delta chains, document
// segment) and the caret Dewey ID semantics; version 3 added the
// cardinality-statistics annotations inside the summary text
// (':count:textbytes'), which version-2 readers cannot parse.
//
// There is deliberately no version-3 decode arm: the summary parser
// accepts text with and without the statistics suffix unconditionally,
// so v2 and v3 manifests go through the same path (testdata/ holds one
// of each; TestGoldenCatalogs opens both).
//
// Version 4 stopped rewriting the document on every commit: the document
// segment is a checkpoint as of DocEpoch and the update log
// (UpdateLogName) carries the epochs after it, which older readers would
// silently ignore. In a version-2 or -3 directory the document is current
// at the catalog epoch and there is no log, so OpenCatalog reads those as
// DocEpoch = Epoch; the first commit writes the directory back as
// version 4.
const CatalogVersion = 4

// MinCatalogVersion is the oldest manifest version this code still reads:
// version-2 stores (plain summary text, no statistics) open fine — the
// cost model falls back to uniform estimates. Version-1 stores must be
// rebuilt (sequential Dewey ordinals would be misread as caret IDs).
const MinCatalogVersion = 2

// Entry describes one stored view extent.
type Entry struct {
	// Name is the view name; it keys plan scans to segments.
	Name string `json:"name"`
	// Pattern is the canonical source text of the view's tree pattern.
	Pattern string `json:"pattern"`
	// Columns is the extent's flat column schema (s<k>.<attr> names).
	Columns []string `json:"columns"`
	// Rows is the extent's current row count, after replaying Deltas over
	// the base segment.
	Rows int `json:"rows"`
	// Bytes is the base segment file's size.
	Bytes int64 `json:"bytes"`
	// Segment is the base segment file name, relative to the store
	// directory.
	Segment string `json:"segment"`
	// Deltas is the append-only chain of delta segments to replay over the
	// base segment, oldest first. Compaction folds them back into Segment
	// and clears the chain.
	Deltas []DeltaRef `json:"deltas,omitempty"`
}

// DeltaRef names one delta segment of an entry's chain.
type DeltaRef struct {
	// Segment is the delta file name, relative to the store directory.
	Segment string `json:"segment"`
	// Adds and Dels are the tuple counts of the two halves.
	Adds int `json:"adds"`
	Dels int `json:"dels"`
	// Bytes is the delta file's size.
	Bytes int64 `json:"bytes"`
	// Epoch is the store epoch the batch produced.
	Epoch int64 `json:"epoch"`
}

// Catalog is the manifest of a store directory: the summary the views were
// built under and one entry per stored extent.
type Catalog struct {
	FormatVersion int `json:"format_version"`
	// Document optionally records the source document's name.
	Document string `json:"document,omitempty"`
	// Summary is the path summary in parenthesized notation
	// (summary.Parse format); serving rewrites against it without ever
	// touching the source document.
	Summary string `json:"summary"`
	// SummaryHash is the SHA-256 of Summary, cross-checking segment and
	// manifest provenance.
	SummaryHash string  `json:"summary_hash"`
	Views       []Entry `json:"views"`
	// Epoch is the store's monotone maintenance epoch: 0 at build time,
	// incremented by every applied update batch. Serving layers key cached
	// plans to it so a stale plan can never outlive an update.
	Epoch int64 `json:"epoch,omitempty"`
	// DocSegment names the persisted source document segment (see
	// EncodeDocument), a checkpoint of the document as of DocEpoch; it
	// always names a file that exists. A store without one cannot apply
	// updates.
	DocSegment string `json:"doc_segment,omitempty"`
	// DocEpoch is the epoch DocSegment was written at. The update log holds
	// one record for each epoch in (DocEpoch, Epoch]; replaying them over
	// the checkpoint yields the document at Epoch.
	DocEpoch int64 `json:"doc_epoch,omitempty"`
}

// Entry returns the catalog entry for the named view, or nil.
func (c *Catalog) Entry(name string) *Entry {
	for i := range c.Views {
		if c.Views[i].Name == name {
			return &c.Views[i]
		}
	}
	return nil
}

// SummaryHash returns the hex SHA-256 of a summary's source text.
func SummaryHash(summarySrc string) string {
	h := sha256.Sum256([]byte(summarySrc))
	return hex.EncodeToString(h[:])
}

// WriteCatalog writes the manifest into dir (atomically, via rename).
func WriteCatalog(dir string, c *Catalog) error {
	c.FormatVersion = CatalogVersion
	c.SummaryHash = SummaryHash(c.Summary)
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, ManifestName), append(data, '\n'))
}

// OpenCatalog reads and validates the manifest of a store directory.
func OpenCatalog(dir string) (*Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("store: invalid catalog in %s: %w", dir, err)
	}
	if c.FormatVersion < MinCatalogVersion || c.FormatVersion > CatalogVersion {
		return nil, fmt.Errorf("store: unsupported catalog version %d (want %d..%d)", c.FormatVersion, MinCatalogVersion, CatalogVersion)
	}
	if got := SummaryHash(c.Summary); got != c.SummaryHash {
		return nil, fmt.Errorf("store: catalog summary hash mismatch (manifest says %s, computed %s)", c.SummaryHash, got)
	}
	if c.Epoch < 0 {
		return nil, fmt.Errorf("store: negative catalog epoch %d", c.Epoch)
	}
	if c.FormatVersion < 4 {
		c.DocEpoch = c.Epoch
	}
	if c.DocEpoch < 0 || c.DocEpoch > c.Epoch {
		return nil, fmt.Errorf("store: catalog document epoch %d outside [0, %d]", c.DocEpoch, c.Epoch)
	}
	seen := map[string]bool{}
	for _, e := range c.Views {
		if e.Name == "" || e.Segment == "" {
			return nil, fmt.Errorf("store: catalog entry with empty name or segment")
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("store: duplicate catalog entry %q", e.Name)
		}
		seen[e.Name] = true
		for _, d := range e.Deltas {
			if d.Segment == "" {
				return nil, fmt.Errorf("store: catalog entry %q has a delta without a segment", e.Name)
			}
			if d.Epoch < 1 || d.Epoch > c.Epoch {
				return nil, fmt.Errorf("store: catalog entry %q delta epoch %d outside (0, %d]", e.Name, d.Epoch, c.Epoch)
			}
		}
	}
	return &c, nil
}
