package view

import (
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
// The returned store carries no document: queries are answered purely from
// the persisted extents.
func OpenStore(dir string, views []*core.View) (*Store, error) {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	return OpenStoreWithCatalog(dir, cat, views)
}

// OpenStoreWithCatalog is OpenStore for callers that already hold the
// directory's catalog (e.g. a serving daemon that also needs the summary).
// Each extent is its base segment with the entry's delta chain replayed
// over it, oldest first.
func OpenStoreWithCatalog(dir string, cat *store.Catalog, views []*core.View) (*Store, error) {
	st := &Store{views: views, blocks: newBlockCache(),
		cur: &extentVersion{epoch: cat.Epoch, rels: map[string]*nrel.Relation{}, prepared: map[string]*nrel.Relation{}}}
	for _, v := range views {
		e := cat.Entry(v.Name)
		if e == nil {
			return nil, fmt.Errorf("view: %q not in catalog %s", v.Name, dir)
		}
		if got := v.Pattern.String(); got != e.Pattern {
			return nil, fmt.Errorf("view: definition of %q does not match catalog (have %s, catalog has %s); rebuild the store", v.Name, got, e.Pattern)
		}
		rel, zones, err := store.ReadFileZones(filepath.Join(dir, e.Segment))
		if err != nil {
			return nil, err
		}
		if zones != nil && len(e.Deltas) == 0 {
			// The extent keeps the segment's row order, so the persisted
			// zone maps describe it exactly; replayed deltas reorder rows
			// and void them (Blocks recomputes zones in that case).
			if st.cur.zoneSeeds == nil {
				st.cur.zoneSeeds = map[string]*store.ZoneMap{}
			}
			st.cur.zoneSeeds[v.Name] = zones
		}
		if rel, err = replayChain(dir, e, rel); err != nil {
			return nil, err
		}
		st.cur.rels[v.Name] = rel
	}
	return st, nil
}

// replayChain is the one path from a catalog entry's files to its extent,
// shared by store open and compaction: it reads the entry's delta files,
// checks each against its DeltaRef tuple counts, folds the chain over base
// in one pass (maintain.FoldChain) and checks the result against the
// entry's row count.
func replayChain(dir string, e *store.Entry, base *nrel.Relation) (*nrel.Relation, error) {
	rel := base
	if len(e.Deltas) > 0 {
		adds := make([]*nrel.Relation, len(e.Deltas))
		dels := make([]*nrel.Relation, len(e.Deltas))
		for i, d := range e.Deltas {
			a, dl, err := store.ReadDeltaFile(filepath.Join(dir, d.Segment))
			if err != nil {
				return nil, err
			}
			if a.Len() != d.Adds || dl.Len() != d.Dels {
				return nil, fmt.Errorf("view: delta %s has %d/%d tuples, catalog says %d/%d",
					d.Segment, a.Len(), dl.Len(), d.Adds, d.Dels)
			}
			adds[i], dels[i] = a, dl
		}
		rel = maintain.FoldChain(base, adds, dels)
	}
	if rel.Len() != e.Rows {
		return nil, fmt.Errorf("view: extent %q has %d rows after %d delta(s), catalog says %d",
			e.Name, rel.Len(), len(e.Deltas), e.Rows)
	}
	return rel, nil
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
