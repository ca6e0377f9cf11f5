package view

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xmlviews/internal/maintain"
	"xmlviews/internal/obs"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// ChangedView summarizes one view's delta in an applied batch.
type ChangedView struct {
	Name string `json:"name"`
	Adds int    `json:"adds"`
	Dels int    `json:"dels"`
	Rows int    `json:"rows"`
}

// UpdateResult reports what an applied (and persisted) batch did.
type UpdateResult struct {
	// Epoch is the store epoch after the batch.
	Epoch int64 `json:"epoch"`
	// Changed lists the views whose extents changed, with delta sizes.
	Changed []ChangedView `json:"changed"`
	// Skipped counts the views the relevance mapping proved unaffected.
	Skipped int `json:"skipped"`
	// Summary is the rebuilt path summary of the updated document (for
	// the serving layer's epoch-scoped caches; not serialized).
	Summary *summary.Summary `json:"-"`
}

// PersistError reports that a batch was applied to the in-memory store
// but could not be fully persisted: memory is ahead of the directory.
// The caller must not apply further batches against the directory (the
// serving layer degrades /update until restart), since a later persisted
// batch would leave a hole in the delta chains that makes the store
// refuse to reopen.
type PersistError struct{ Err error }

func (e *PersistError) Error() string {
	return "view: batch applied in memory but not persisted: " + e.Err.Error()
}
func (e *PersistError) Unwrap() error { return e.Err }

// ApplyAndPersistStaged runs one update batch against an open store and
// appends the resulting delta segments to its directory: one delta file
// per changed view, the re-encoded document, and the catalog (new epoch,
// rebuilt summary, updated row counts) — the catalog write last and the
// catalog object mutated only after every file write succeeded, so a
// crash or I/O failure mid-persist leaves both the catalog object and
// the directory's manifest on the pre-batch state, with only
// unreferenced files behind. The store must carry its document
// (OpenUpdatableStore, or AttachDocument on an open store).
//
// onApplied (when non-nil) runs after the batch is applied to the
// in-memory store — the new extent version is installed and the result
// (epoch, per-view deltas, rebuilt summary) is complete — but before any
// file write. A serving layer uses it to publish the new epoch the moment
// it is readable, so queries never wait out the disk persist.
//
// An apply failure leaves everything untouched. A persist failure is
// returned as *PersistError together with the batch result: the
// in-memory store has advanced and the directory has not.
//
// When ctx carries an obs.Trace, the pipeline records "apply" (in-memory
// maintenance, including the engine's diff/splice sub-spans), "persist"
// (delta and document file writes) and "catalog" (commit write) spans.
// The context does not cancel the batch: aborting between apply and
// catalog-write is exactly the memory-ahead-of-disk state PersistError
// exists to report, so the batch always runs to completion or error.
//
// Everything that mutates one directory — this function and
// CompactCatalog — must be called from one goroutine at a time; the
// serving layer's committer and the offline CLI are each that goroutine.
func ApplyAndPersistStaged(ctx context.Context, dir string, cat *store.Catalog, st *Store, updates []xmltree.Update, onApplied func(*UpdateResult)) (*UpdateResult, error) {
	endApply := obs.StartSpan(ctx, "apply")
	batch, err := st.ApplyUpdates(ctx, updates)
	endApply()
	if err != nil {
		return nil, err
	}
	epoch := st.Epoch()
	res := &UpdateResult{Epoch: epoch, Skipped: len(batch.Skipped), Summary: batch.Summary}
	for _, d := range batch.Deltas {
		res.Changed = append(res.Changed, ChangedView{
			Name: d.View.Name, Adds: d.Adds.Len(), Dels: d.Dels.Len(), Rows: d.New.Len(),
		})
	}
	if onApplied != nil {
		onApplied(res)
	}
	endPersist := obs.StartSpan(ctx, "persist")
	// Stage: write every delta file before touching the catalog object.
	type staged struct {
		entry *store.Entry
		ref   store.DeltaRef
		rows  int
	}
	var stage []staged
	for _, d := range batch.Deltas {
		e := cat.Entry(d.View.Name)
		if e == nil {
			endPersist()
			return res, &PersistError{fmt.Errorf("changed view %q not in catalog", d.View.Name)}
		}
		base := strings.TrimSuffix(e.Segment, ".xvs")
		seg := fmt.Sprintf("%s.d%04d.xvs", base, epoch)
		n, err := store.WriteDeltaFile(filepath.Join(dir, seg), d.Adds, d.Dels)
		if err != nil {
			endPersist()
			return res, &PersistError{fmt.Errorf("writing delta for %q: %w", d.View.Name, err)}
		}
		stage = append(stage, staged{entry: e, rows: d.New.Len(),
			ref: store.DeltaRef{Segment: seg, Adds: d.Adds.Len(), Dels: d.Dels.Len(), Bytes: n, Epoch: epoch}})
	}
	docSeg := cat.DocSegment
	if docSeg == "" {
		docSeg = DocSegmentName
	}
	// The codec persists each node's PathID; incremental maintenance no
	// longer touches those, so refresh them from the batch's summary
	// before encoding (the write below walks the whole document anyway).
	if err := batch.Summary.Annotate(st.Document()); err != nil {
		endPersist()
		return res, &PersistError{fmt.Errorf("annotating document: %w", err)}
	}
	if _, err := store.WriteDocumentFile(filepath.Join(dir, docSeg), st.Document()); err != nil {
		endPersist()
		return res, &PersistError{fmt.Errorf("persisting document: %w", err)}
	}
	endPersist()
	// Commit: all files durable; mutate the catalog and write it.
	endCatalog := obs.StartSpan(ctx, "catalog")
	defer endCatalog()
	for _, s := range stage {
		s.entry.Deltas = append(s.entry.Deltas, s.ref)
		s.entry.Rows = s.rows
	}
	cat.DocSegment = docSeg
	cat.Summary = batch.Summary.StatsString()
	cat.Epoch = epoch
	if err := store.WriteCatalog(dir, cat); err != nil {
		return res, &PersistError{err}
	}
	return res, nil
}

// OpenUpdatableStore opens a store directory together with its persisted
// document, ready for ApplyAndPersistStaged.
func OpenUpdatableStore(dir string) (*store.Catalog, *Store, error) {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return nil, nil, err
	}
	views, err := ViewsFromCatalog(cat)
	if err != nil {
		return nil, nil, err
	}
	st, err := OpenStoreWithCatalog(dir, cat, views)
	if err != nil {
		return nil, nil, err
	}
	if err := AttachDocument(dir, cat, st); err != nil {
		return nil, nil, err
	}
	return cat, st, nil
}

// AttachDocument loads the directory's persisted source document into an
// open store, making it updatable. Serving layers call it lazily, on the
// first update: a store that only answers queries never reads the
// document back.
func AttachDocument(dir string, cat *store.Catalog, st *Store) error {
	if cat.DocSegment == "" {
		return fmt.Errorf("view: store %s has no persisted document; rebuild it to make it updatable", dir)
	}
	doc, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment))
	if err != nil {
		return err
	}
	st.SetDocument(doc)
	return nil
}

// UpdateStore applies an update batch to a store directory offline: open,
// maintain, persist. It is the engine behind `xvstore apply`.
func UpdateStore(dir string, updates []xmltree.Update) (*UpdateResult, error) {
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		return nil, err
	}
	return ApplyAndPersistStaged(context.Background(), dir, cat, st, updates, nil)
}

// CompactResult reports what a compaction did.
type CompactResult struct {
	// Folded is the number of delta segments folded into base segments.
	Folded int `json:"folded"`
	// FilesRemoved and BytesReclaimed count the superseded files (old base
	// segments and folded delta segments) actually deleted from disk after
	// the new catalog was durably written.
	FilesRemoved   int   `json:"files_removed"`
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// CompactStore folds every entry's delta chain into a fresh base segment
// and clears the chains. Extents are unchanged (a compacted store answers
// queries identically); the epoch is preserved.
func CompactStore(dir string) (*CompactResult, error) {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	return CompactCatalog(dir, cat)
}

// CompactCatalog is CompactStore for callers that hold the directory's
// live catalog object (the serving daemon's committer must mutate the
// same catalog its update path appends to, or a later persisted batch
// would resurrect folded chains).
//
// Crash safety: each folded extent is written to a *new* base segment
// (named <stem>.c<epoch>.xvs), the catalog is atomically renamed into
// place last, and only then are the superseded files deleted. A crash
// before the catalog write leaves the old catalog referencing the old,
// untouched files (plus unreferenced new-base files a later compaction
// run cannot collide with, since the epoch has to advance before chains
// regrow); a crash after it leaves only removable garbage.
func CompactCatalog(dir string, cat *store.Catalog) (*CompactResult, error) {
	res := &CompactResult{}
	type obsolete struct {
		seg   string
		bytes int64
	}
	var stale []obsolete
	type commit struct {
		entry   *store.Entry
		segment string
		bytes   int64
	}
	var commits []commit
	for i := range cat.Views {
		e := &cat.Views[i]
		if len(e.Deltas) == 0 {
			continue
		}
		rel, err := store.ReadFile(filepath.Join(dir, e.Segment))
		if err != nil {
			return nil, err
		}
		for _, d := range e.Deltas {
			adds, dels, err := store.ReadDeltaFile(filepath.Join(dir, d.Segment))
			if err != nil {
				return nil, err
			}
			rel = maintain.FoldDelta(rel, adds, dels)
			stale = append(stale, obsolete{seg: d.Segment, bytes: d.Bytes})
			res.Folded++
		}
		if rel.Len() != e.Rows {
			return nil, fmt.Errorf("view: compaction of %q yields %d rows, catalog says %d", e.Name, rel.Len(), e.Rows)
		}
		seg := compactedSegmentName(e.Segment, cat.Epoch)
		n, err := store.WriteFile(filepath.Join(dir, seg), rel)
		if err != nil {
			return nil, err
		}
		stale = append(stale, obsolete{seg: e.Segment, bytes: e.Bytes})
		commits = append(commits, commit{entry: e, segment: seg, bytes: n})
	}
	if res.Folded == 0 {
		return res, nil
	}
	for _, c := range commits {
		c.entry.Segment = c.segment
		c.entry.Bytes = c.bytes
		c.entry.Deltas = nil
	}
	if err := store.WriteCatalog(dir, cat); err != nil {
		return nil, err
	}
	// The new catalog no longer references these; reclaim the space. A
	// removal failure only leaks an unreferenced file, so it is not fatal
	// and simply is not counted as reclaimed.
	for _, o := range stale {
		if err := os.Remove(filepath.Join(dir, o.seg)); err == nil {
			res.FilesRemoved++
			res.BytesReclaimed += o.bytes
		}
	}
	return res, nil
}

// compactedSegmentName derives the next base segment name from the current
// one: the stem up to the first '.' plus the compaction epoch, so repeated
// compactions do not grow the name.
func compactedSegmentName(segment string, epoch int64) string {
	stem := segment
	if i := strings.IndexByte(stem, '.'); i >= 0 {
		stem = stem[:i]
	}
	return fmt.Sprintf("%s.c%04d.xvs", stem, epoch)
}
