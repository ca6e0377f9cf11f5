package view

import (
	"context"
	"fmt"
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
// batch would leave a hole in the delta chains and the update log that
// makes the store refuse to reopen.
type PersistError struct{ Err error }

func (e *PersistError) Error() string {
	return "view: batch applied in memory but not persisted: " + e.Err.Error()
}
func (e *PersistError) Unwrap() error { return e.Err }

// CheckpointEvery is how many epochs the update log may hold before the
// directory's writer checkpoints the document (CheckpointDue). A checkpoint
// re-encodes the whole document (~70 ms for the benchmark's 220k nodes,
// against ~5 ms for a commit), so it must be rare to stay off the
// throughput; replay at attach costs one ApplyUpdate per logged update
// (microseconds), so the log may be long. Chosen from alternating
// write_stream runs (CHANGES.md): every 16 epochs — riding each compaction —
// gave 82 ops/s at p90 114 ms, 64 gave 104 at 74 ms, 256 gave 133 at 62 ms.
const CheckpointEvery = 256

// ApplyAndPersistStaged runs one update batch against an open store and
// appends it to the directory: one delta file per changed view, one
// update-log record holding the batch itself (store.AppendUpdateLog,
// fsynced), and the catalog (new epoch, rebuilt summary, updated row
// counts) — the catalog write last and the catalog object mutated only
// after every file write succeeded, so a crash or I/O failure mid-persist
// leaves both the catalog object and the directory's manifest on the
// pre-batch state, with only unreferenced delta files and at most one log
// record beyond the catalog epoch behind (AttachDocument drops it). The
// document is NOT rewritten: the catalog's DocSegment stays the checkpoint
// of DocEpoch, and CheckpointDocument folds the log into a fresh one off
// the commit path. The store must carry its document (OpenUpdatableStore,
// or AttachDocument on an open store).
//
// What is applied is exactly what a replay of the log record will apply:
// the batch is rendered to its wire form (maintain.EncodeUpdates) and the
// parse of those bytes is what runs, so memory and log cannot diverge. A
// batch the wire form cannot carry (an inserted label ParseParen would not
// read back) is refused before anything changes.
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
// (delta files and the log record) and "catalog" (commit write) spans.
// The context does not cancel the batch: aborting between apply and
// catalog-write is exactly the memory-ahead-of-disk state PersistError
// exists to report, so the batch always runs to completion or error.
//
// Everything that mutates one directory — this function,
// CheckpointDocument and CompactCatalog — must be called from one
// goroutine at a time; the serving layer's committer and the offline CLI
// are each that goroutine.
func ApplyAndPersistStaged(ctx context.Context, dir string, cat *store.Catalog, st *Store, updates []xmltree.Update, onApplied func(*UpdateResult)) (*UpdateResult, error) {
	if cat.DocSegment == "" {
		return nil, fmt.Errorf("view: store %s has no persisted document to log updates against; rebuild it", dir)
	}
	payload, err := maintain.EncodeUpdates(updates)
	if err == nil {
		updates, err = maintain.ParseUpdates(payload)
	}
	if err != nil {
		return nil, fmt.Errorf("view: batch has no replayable log form: %w", err)
	}
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
	// The log record goes last of the staged writes, so the only window in
	// which the log is ahead of the catalog is the catalog write itself.
	if err := store.AppendUpdateLog(dir, epoch, payload); err != nil {
		endPersist()
		return res, &PersistError{fmt.Errorf("appending update log: %w", err)}
	}
	endPersist()
	// Commit: all files durable; mutate the catalog and write it.
	endCatalog := obs.StartSpan(ctx, "catalog")
	defer endCatalog()
	for _, s := range stage {
		s.entry.Deltas = append(s.entry.Deltas, s.ref)
		s.entry.Rows = s.rows
	}
	cat.Summary = batch.Summary.StatsString()
	cat.Epoch = epoch
	if err := store.WriteCatalog(dir, cat); err != nil {
		return res, &PersistError{err}
	}
	return res, nil
}

// CheckpointDue reports whether the update log has reached
// CheckpointEvery epochs.
func CheckpointDue(cat *store.Catalog) bool {
	return cat.Epoch-cat.DocEpoch >= CheckpointEvery
}

// CheckpointDocument folds the update log into a fresh document
// checkpoint: doc — the directory's document as of cat.Epoch, i.e. the
// attached document of the store whose batches this catalog recorded — is
// annotated with the catalog's summary (the codec persists each node's
// PathID, which incremental maintenance leaves stale) and written to a new
// file named document.c<epoch>.xvt; the catalog is renamed into place with
// DocSegment and DocEpoch pointing at it; only then is the log truncated
// and the old checkpoint removed.
//
// Crash safety mirrors CompactCatalog: before the catalog write the old
// catalog references the old checkpoint and the untouched log (plus an
// unreferenced new file a later checkpoint cannot collide with, since the
// epoch has to advance first); after it, the log's records are all at or
// below DocEpoch, which replay skips, and the old checkpoint is garbage.
// The catalog object is mutated only once the manifest is durable, so a
// failed checkpoint leaves it untouched and can simply be retried.
func CheckpointDocument(dir string, cat *store.Catalog, doc *xmltree.Document) error {
	if cat.DocEpoch == cat.Epoch {
		return nil
	}
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		return fmt.Errorf("view: catalog summary does not parse: %w", err)
	}
	if err := sum.Annotate(doc); err != nil {
		return fmt.Errorf("view: annotating document: %w", err)
	}
	seg := fmt.Sprintf("document.c%04d.xvt", cat.Epoch)
	if _, err := store.WriteDocumentFile(filepath.Join(dir, seg), doc); err != nil {
		return fmt.Errorf("view: writing document checkpoint: %w", err)
	}
	next := *cat
	next.DocSegment, next.DocEpoch = seg, cat.Epoch
	if err := store.WriteCatalog(dir, &next); err != nil {
		return err
	}
	old := cat.DocSegment
	*cat = next
	// The durable catalog no longer needs these; a failure or crash here
	// leaves skipped records and an unreferenced file, not an inconsistency.
	if err := store.TruncateUpdateLog(dir, 0); err != nil {
		return fmt.Errorf("view: truncating update log after checkpoint: %w", err)
	}
	_ = store.RemoveFile(filepath.Join(dir, old))
	return nil
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

// AttachDocument loads the directory's source document into an open
// store, making it updatable: it reads the checkpoint the catalog names
// and replays the update-log records of epochs DocEpoch+1 … Epoch over it
// (xmltree.Document.ApplyUpdate; ID allocation is a pure function of the
// document, so the replayed document is the committed one node for node).
// Records at or below DocEpoch are skipped (a checkpoint whose log
// truncation never happened). Whatever follows the last needed record is
// cut off the log before returning: a record beyond the catalog epoch is a
// commit that crashed between its log append and its catalog rename, and
// bytes that do not frame a record are an append torn by a short write —
// neither was ever acknowledged. A needed record that is missing, out of
// sequence, corrupt or unappliable refuses the attach, exactly as a hole
// in a delta chain refuses the open.
//
// Serving layers call it lazily, on the first update: a store that only
// answers queries never reads the document back. It writes (the
// truncation), so it belongs to the directory's single writer.
func AttachDocument(dir string, cat *store.Catalog, st *Store) error {
	if cat.DocSegment == "" {
		return fmt.Errorf("view: store %s has no persisted document; rebuild it to make it updatable", dir)
	}
	doc, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment))
	if err != nil {
		return err
	}
	recs, keep, tail, err := store.ReadUpdateLog(dir)
	if err != nil {
		return err
	}
	cut := tail != nil
	next := cat.DocEpoch + 1
	for _, r := range recs {
		if r.Epoch > cat.Epoch {
			keep, cut = r.Offset, true
			break
		}
		if r.Epoch <= cat.DocEpoch && next == cat.DocEpoch+1 {
			continue
		}
		if r.Epoch != next {
			return fmt.Errorf("view: update log of %s is out of sequence: want epoch %d, found %d", dir, next, r.Epoch)
		}
		ups, err := maintain.ParseUpdates(r.Payload)
		if err != nil {
			return fmt.Errorf("view: update log record of epoch %d: %w", r.Epoch, err)
		}
		for i, u := range ups {
			if _, err := doc.ApplyUpdate(u); err != nil {
				return fmt.Errorf("view: replaying epoch %d, update %d: %w", r.Epoch, i, err)
			}
		}
		next++
	}
	if next <= cat.Epoch {
		if tail != nil {
			return fmt.Errorf("view: update log of %s stops at epoch %d, catalog is at %d: %w", dir, next-1, cat.Epoch, tail)
		}
		return fmt.Errorf("view: update log of %s stops at epoch %d, catalog is at %d", dir, next-1, cat.Epoch)
	}
	if cut {
		if err := store.TruncateUpdateLog(dir, keep); err != nil {
			return fmt.Errorf("view: dropping unacknowledged update log tail: %w", err)
		}
	}
	st.SetDocument(doc)
	return nil
}

// UpdateStore applies an update batch to a store directory offline: open
// (replaying the update log), maintain, persist, and checkpoint the
// document when the log has grown to CheckpointEvery epochs. It is the
// engine behind `xvstore apply`.
func UpdateStore(dir string, updates []xmltree.Update) (*UpdateResult, error) {
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		return nil, err
	}
	res, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, updates, nil)
	if err != nil || !CheckpointDue(cat) {
		return res, err
	}
	if err := CheckpointDocument(dir, cat, st.Document()); err != nil {
		return res, fmt.Errorf("view: batch committed at epoch %d, but the document checkpoint failed: %w", res.Epoch, err)
	}
	return res, nil
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
		base, err := store.ReadFile(filepath.Join(dir, e.Segment))
		if err != nil {
			return nil, err
		}
		rel, err := replayChain(dir, e, base)
		if err != nil {
			return nil, err
		}
		for _, d := range e.Deltas {
			stale = append(stale, obsolete{seg: d.Segment, bytes: d.Bytes})
		}
		res.Folded += len(e.Deltas)
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
		if err := store.RemoveFile(filepath.Join(dir, o.seg)); err == nil {
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
