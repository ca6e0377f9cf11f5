package view

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// DocSegmentName is the file the source document is persisted under,
// making the store updatable (see UpdateStore).
const DocSegmentName = "document.xvt"

// BuildStore materializes every view over the document once and persists
// the extents as columnar segments plus a catalog manifest in dir (created
// if needed). Later runs serve the views with OpenStore, never touching
// the document again. The document's summary is built (annotating the
// document, as pattern evaluation requires) and recorded in the catalog in
// parseable notation. The document itself is persisted too (compressed by
// the segment tree codec), so the store can be maintained through updates
// later; the store opens and serves without ever reading it back unless
// updates arrive.
func BuildStore(dir string, doc *xmltree.Document, views []*core.View) (*store.Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The catalog records the summary with its cardinality statistics
	// (StatsString annotations), so a serving daemon can cost rewritings
	// without the document; Parse accepts either form, and stores written
	// without statistics still open (the cost model then falls back to
	// uniform estimates).
	s := summary.Build(doc)
	cat := &store.Catalog{Document: doc.Name, Summary: s.StatsString(), DocSegment: DocSegmentName}
	for i, v := range views {
		if cat.Entry(v.Name) != nil {
			return nil, fmt.Errorf("view: duplicate view name %q", v.Name)
		}
		rel := MaterializeFlat(v, doc)
		seg := fmt.Sprintf("seg-%04d.xvs", i)
		n, err := store.WriteFile(filepath.Join(dir, seg), rel)
		if err != nil {
			return nil, fmt.Errorf("view: writing segment for %q: %w", v.Name, err)
		}
		cat.Views = append(cat.Views, store.Entry{
			Name:    v.Name,
			Pattern: v.Pattern.String(),
			Columns: append([]string(nil), rel.Cols...),
			Rows:    rel.Len(),
			Bytes:   n,
			Segment: seg,
		})
	}
	if _, err := store.WriteDocumentFile(filepath.Join(dir, DocSegmentName), doc); err != nil {
		return nil, fmt.Errorf("view: persisting document: %w", err)
	}
	if err := store.WriteCatalog(dir, cat); err != nil {
		return nil, err
	}
	return cat, nil
}

// OpenStore loads the named views' extents from a store directory built by
// BuildStore. Each view's definition is checked against the catalog's
// recorded pattern text, and every segment block is CRC-verified at load.
// The returned store answers queries purely from the loaded extents.
func OpenStore(dir string, views []*core.View) (*Store, error) {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	return OpenStoreWithCatalog(dir, cat, views)
}

// OpenStoreWithCatalog is OpenStore for callers that already hold the
// directory's catalog (e.g. a serving daemon that also needs the summary).
//
// The base segments hold the extents at DocEpoch. When the catalog is
// ahead of that, the document checkpoint is read and the update log's
// records of epochs DocEpoch+1 … Epoch are replayed through ApplyUpdates,
// the path a commit takes, so a reopened store is the committed one by
// construction; the store then carries the document. A directory written
// before catalog version 5 has no base segments current at DocEpoch: its
// extents are rebuilt with MaterializeFlat over the checkpoint before the
// replay, and its first writer checkpoints it (AttachDocument) — until
// then the upgrade lives in memory only.
//
// Open never writes. Records beyond the catalog epoch and a torn tail are
// left where they are for the writer to cut (AttachDocument); a needed
// record that is missing, out of sequence, corrupt or unappliable refuses
// the open. Every extent must end with the row count the catalog records.
func OpenStoreWithCatalog(dir string, cat *store.Catalog, views []*core.View) (*Store, error) {
	upgrade := cat.FormatVersion < store.CatalogVersion
	var doc *xmltree.Document
	if upgrade || cat.Epoch > cat.DocEpoch {
		if cat.DocSegment == "" {
			return nil, fmt.Errorf("view: store %s has no persisted document to replay its update log over; rebuild it", dir)
		}
		var err error
		if doc, err = store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment)); err != nil {
			return nil, err
		}
	}
	st := &Store{views: views, blocks: newBlockCache(), dirty: map[string]bool{},
		cur: &extentVersion{epoch: cat.DocEpoch, rels: map[string]*nrel.Relation{}, prepared: map[string]*nrel.Relation{}}}
	for _, v := range views {
		e := cat.Entry(v.Name)
		if e == nil {
			return nil, fmt.Errorf("view: %q not in catalog %s", v.Name, dir)
		}
		if got := v.Pattern.String(); got != e.Pattern {
			return nil, fmt.Errorf("view: definition of %q does not match catalog (have %s, catalog has %s); rebuild the store", v.Name, got, e.Pattern)
		}
		if upgrade {
			st.cur.rels[v.Name] = MaterializeFlat(v, doc)
			st.dirty[v.Name] = true
			continue
		}
		rel, zones, err := store.ReadFileZones(filepath.Join(dir, e.Segment))
		if err != nil {
			return nil, err
		}
		if zones != nil {
			// The extent keeps the segment's row order, so the persisted zone
			// maps describe it exactly until an update reorders it.
			if st.cur.zoneSeeds == nil {
				st.cur.zoneSeeds = map[string]*store.ZoneMap{}
			}
			st.cur.zoneSeeds[v.Name] = zones
		}
		st.cur.rels[v.Name] = rel
	}
	if doc != nil {
		st.doc = doc
		batches, _, err := acknowledgedLog(dir, cat)
		if err != nil {
			return nil, err
		}
		for i, ups := range batches {
			if _, err := st.ApplyUpdates(context.Background(), ups); err != nil {
				return nil, fmt.Errorf("view: replaying epoch %d: %w", cat.DocEpoch+int64(i)+1, err)
			}
		}
	}
	for _, v := range views {
		if n, want := st.cur.rels[v.Name].Len(), cat.Entry(v.Name).Rows; n != want {
			return nil, fmt.Errorf("view: extent %q has %d rows at epoch %d, catalog says %d", v.Name, n, cat.Epoch, want)
		}
	}
	return st, nil
}

// acknowledgedLog reads the update log's batches for epochs DocEpoch+1 …
// Epoch, in order, and the byte length of the log up to the last of them
// when anything follows it: a record beyond the catalog epoch is a commit
// that crashed between its log append and its catalog rename, and bytes
// that do not frame a record are an append torn by a short write — neither
// was ever acknowledged. cut is -1 when the log ends with the catalog
// epoch. Records at or below DocEpoch are skipped (a checkpoint whose log
// truncation never happened).
func acknowledgedLog(dir string, cat *store.Catalog) (batches [][]xmltree.Update, cut int64, err error) {
	recs, valid, tail, err := store.ReadUpdateLog(dir)
	if err != nil {
		return nil, 0, err
	}
	cut = -1
	if tail != nil {
		cut = valid
	}
	next := cat.DocEpoch + 1
	for _, r := range recs {
		if r.Epoch > cat.Epoch {
			cut = r.Offset
			break
		}
		if r.Epoch <= cat.DocEpoch && next == cat.DocEpoch+1 {
			continue
		}
		if r.Epoch != next {
			return nil, 0, fmt.Errorf("view: update log of %s is out of sequence: want epoch %d, found %d", dir, next, r.Epoch)
		}
		ups, err := maintain.ParseUpdates(r.Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("view: update log record of epoch %d: %w", r.Epoch, err)
		}
		batches = append(batches, ups)
		next++
	}
	if next <= cat.Epoch {
		if tail != nil {
			return nil, 0, fmt.Errorf("view: update log of %s stops at epoch %d, catalog is at %d: %w", dir, next-1, cat.Epoch, tail)
		}
		return nil, 0, fmt.Errorf("view: update log of %s stops at epoch %d, catalog is at %d", dir, next-1, cat.Epoch)
	}
	return batches, cut, nil
}

// ViewsFromCatalog reconstructs view definitions from a catalog's recorded
// pattern texts (with derivable parent IDs: extents store Dewey IDs).
func ViewsFromCatalog(cat *store.Catalog) ([]*core.View, error) {
	views := make([]*core.View, 0, len(cat.Views))
	for _, e := range cat.Views {
		p, err := pattern.Parse(e.Pattern)
		if err != nil {
			return nil, fmt.Errorf("view: catalog view %q pattern does not parse: %w", e.Name, err)
		}
		views = append(views, &core.View{Name: e.Name, Pattern: p, DerivableParentIDs: true})
	}
	return views, nil
}
