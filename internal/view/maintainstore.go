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
// batch would leave a hole in the update log that makes the store refuse
// to reopen.
type PersistError struct{ Err error }

func (e *PersistError) Error() string {
	return "view: batch applied in memory but not persisted: " + e.Err.Error()
}
func (e *PersistError) Unwrap() error { return e.Err }

// CheckpointEvery is how many epochs the update log may hold before the
// directory's writer checkpoints (CheckpointDue): the one background step
// that writes the changed extents and the document at the catalog epoch
// and empties the log. A checkpoint re-encodes the whole document (~70 ms
// for the benchmark's 220k nodes, against ~5 ms for a commit), so it must
// be rare to stay off the throughput; a restart replays up to this many
// logged batches through ApplyUpdates (BenchmarkOpenFullLog). Chosen from
// alternating write_stream runs (CHANGES.md): checkpointing every 16
// epochs gave 82 ops/s at p90 114 ms, 64 gave 104 at 74 ms, 256 gave 133
// at 62 ms.
const CheckpointEvery = 256

// ApplyAndPersistStaged runs one update batch against an open store and
// commits it to the directory: one update-log record holding the batch
// itself (store.AppendUpdateLog, fsynced), then the catalog (new epoch,
// rebuilt summary, updated row counts) renamed into place. Nothing else is
// written: the base segments and the document stay the checkpoint of
// DocEpoch, and Checkpoint folds the log into fresh ones off the commit
// path. A crash or I/O failure before the catalog rename leaves the
// directory's manifest on the pre-batch state with at most one log record
// beyond its epoch, which open ignores and the next writer cuts
// (AttachDocument). The store must carry its document (OpenUpdatableStore,
// or AttachDocument on an open store), and a directory still in an older
// catalog layout must be checkpointed first, or the commit would stamp the
// current version on bases that are not current at DocEpoch.
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
// (the log record) and "catalog" (commit write) spans. The context does
// not cancel the batch: aborting between apply and catalog-write is
// exactly the memory-ahead-of-disk state PersistError exists to report, so
// the batch always runs to completion or error.
//
// Everything that mutates one directory — this function, AttachDocument
// and Checkpoint — must be called from one goroutine at a time; the
// serving layer's committer and the offline CLI are each that goroutine.
func ApplyAndPersistStaged(ctx context.Context, dir string, cat *store.Catalog, st *Store, updates []xmltree.Update, onApplied func(*UpdateResult)) (*UpdateResult, error) {
	if cat.DocSegment == "" {
		return nil, fmt.Errorf("view: store %s has no persisted document to log updates against; rebuild it", dir)
	}
	if cat.FormatVersion < store.CatalogVersion {
		return nil, fmt.Errorf("view: store %s has the catalog version %d layout; checkpoint it before its first commit", dir, cat.FormatVersion)
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
	entries := make([]*store.Entry, len(batch.Deltas))
	for i, d := range batch.Deltas {
		res.Changed = append(res.Changed, ChangedView{
			Name: d.View.Name, Adds: d.Adds.Len(), Dels: d.Dels.Len(), Rows: d.New.Len(),
		})
		entries[i] = cat.Entry(d.View.Name)
	}
	if onApplied != nil {
		onApplied(res)
	}
	for i, e := range entries {
		if e == nil {
			return res, &PersistError{fmt.Errorf("changed view %q not in catalog", batch.Deltas[i].View.Name)}
		}
	}
	endPersist := obs.StartSpan(ctx, "persist")
	err = store.AppendUpdateLog(dir, epoch, payload)
	endPersist()
	if err != nil {
		return res, &PersistError{fmt.Errorf("appending update log: %w", err)}
	}
	// Commit: the record is durable; the catalog rename acknowledges it.
	endCatalog := obs.StartSpan(ctx, "catalog")
	defer endCatalog()
	for i, e := range entries {
		e.Rows = batch.Deltas[i].New.Len()
	}
	cat.Summary = batch.Summary.StatsString()
	cat.Epoch = epoch
	if err := store.WriteCatalog(dir, cat); err != nil {
		return res, &PersistError{err}
	}
	return res, nil
}

// CheckpointDue reports whether the directory's writer should checkpoint
// now: the update log has reached CheckpointEvery epochs, or the directory
// is still in an older catalog layout, which must be checkpointed before
// its first commit.
func CheckpointDue(cat *store.Catalog) bool {
	return cat.Epoch-cat.DocEpoch >= CheckpointEvery || cat.FormatVersion < store.CatalogVersion
}

// CheckpointResult reports what a checkpoint wrote and reclaimed.
type CheckpointResult struct {
	// FilesWritten and BytesWritten count the new base segments and the
	// document checkpoint.
	FilesWritten int   `json:"files_written"`
	BytesWritten int64 `json:"bytes_written"`
	// FilesRemoved and BytesReclaimed count the superseded files (old base
	// segments, the old document checkpoint, an older layout's delta
	// segments) actually deleted after the new catalog was durably
	// written.
	FilesRemoved   int   `json:"files_removed"`
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// Checkpoint folds the update log into the directory at the catalog
// epoch, the one background step of the writer. In order:
//
//  1. every view whose extent changed since DocEpoch (every view, for a
//     directory in an older catalog layout) is written from the live store
//     to a new base segment <stem>.c<epoch>.xvs;
//  2. the document, annotated with the catalog's summary (the codec
//     persists each node's PathID, which incremental maintenance leaves
//     stale), is written to document.c<epoch>.xvt;
//  3. the catalog is renamed into place naming them, with DocEpoch = Epoch;
//  4. the log is truncated and the superseded files are removed.
//
// Before step 3 the old catalog references the old, untouched files and
// the full log (plus unreferenced new files a later checkpoint overwrites);
// after it, the log's records are all at or below DocEpoch, which replay
// skips, and the old files are garbage. The catalog object is replaced
// only once the manifest is durable, so a failed checkpoint leaves it
// untouched and can simply be retried. st must be the store whose batches
// this catalog recorded, at the catalog epoch, with its document attached.
func Checkpoint(dir string, cat *store.Catalog, st *Store) (*CheckpointResult, error) {
	res := &CheckpointResult{}
	upgrade := cat.FormatVersion < store.CatalogVersion
	if cat.DocEpoch == cat.Epoch && !upgrade {
		return res, nil
	}
	doc := st.Document()
	if doc == nil {
		return nil, fmt.Errorf("view: checkpoint of %s needs the store's document", dir)
	}
	st.mu.RLock()
	ver, dirty := st.cur, st.dirty
	st.mu.RUnlock()
	if ver.epoch != cat.Epoch {
		return nil, fmt.Errorf("view: store is at epoch %d, catalog %s at %d; not checkpointing", ver.epoch, dir, cat.Epoch)
	}
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		return nil, fmt.Errorf("view: catalog summary does not parse: %w", err)
	}
	if err := sum.Annotate(doc); err != nil {
		return nil, fmt.Errorf("view: annotating document: %w", err)
	}
	next := *cat
	next.Views = append([]store.Entry(nil), cat.Views...)
	for i := range next.Views {
		e := &next.Views[i]
		e.Deltas = nil
		if !dirty[e.Name] && !upgrade {
			continue
		}
		rel, ok := ver.rels[e.Name]
		if !ok {
			return nil, fmt.Errorf("view: extent of %q is not in the store", e.Name)
		}
		seg := baseSegmentName(e.Segment, cat.Epoch)
		n, err := store.WriteFile(filepath.Join(dir, seg), rel)
		if err != nil {
			return nil, fmt.Errorf("view: writing base segment of %q: %w", e.Name, err)
		}
		e.Segment, e.Bytes = seg, n
		res.FilesWritten++
		res.BytesWritten += n
	}
	next.DocSegment, next.DocEpoch = fmt.Sprintf("document.c%04d.xvt", cat.Epoch), cat.Epoch
	n, err := store.WriteDocumentFile(filepath.Join(dir, next.DocSegment), doc)
	if err != nil {
		return nil, fmt.Errorf("view: writing document checkpoint: %w", err)
	}
	res.FilesWritten++
	res.BytesWritten += n
	if err := store.WriteCatalog(dir, &next); err != nil {
		return nil, err
	}
	old := *cat
	*cat = next
	st.mu.Lock()
	st.dirty = map[string]bool{}
	st.mu.Unlock()
	// The durable catalog no longer needs these; a failure or crash here
	// leaves skipped records and unreferenced files, not an inconsistency.
	if err := store.TruncateUpdateLog(dir, 0); err != nil {
		return res, fmt.Errorf("view: truncating update log after checkpoint: %w", err)
	}
	live := map[string]bool{cat.DocSegment: true}
	for _, e := range cat.Views {
		live[e.Segment] = true
	}
	superseded := []string{old.DocSegment}
	for _, e := range old.Views {
		superseded = append(superseded, e.Segment)
		for _, d := range e.Deltas {
			superseded = append(superseded, d.Segment)
		}
	}
	for _, name := range superseded {
		if live[name] {
			continue
		}
		path := filepath.Join(dir, name)
		fi, err := os.Stat(path)
		if err == nil && store.RemoveFile(path) == nil {
			res.FilesRemoved++
			res.BytesReclaimed += fi.Size()
		}
	}
	return res, nil
}

// baseSegmentName derives a view's next base segment name from its current
// one: the stem up to the first '.' plus the checkpoint epoch, so repeated
// checkpoints do not grow the name.
func baseSegmentName(segment string, epoch int64) string {
	stem := segment
	if i := strings.IndexByte(stem, '.'); i >= 0 {
		stem = stem[:i]
	}
	return fmt.Sprintf("%s.c%04d.xvs", stem, epoch)
}

// OpenUpdatableStore opens a store directory as its writer, ready for
// ApplyAndPersistStaged: the extents and the document at the catalog
// epoch (OpenStoreWithCatalog, AttachDocument), and a directory in an
// older catalog layout checkpointed into the current one.
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
	if cat.FormatVersion < store.CatalogVersion {
		if _, err := Checkpoint(dir, cat, st); err != nil {
			return nil, nil, fmt.Errorf("view: checkpointing %s into catalog version %d: %w", dir, store.CatalogVersion, err)
		}
	}
	return cat, st, nil
}

// AttachDocument makes an open store the directory's writer. It attaches
// the document when open did not need it (a catalog with no log to
// replay), and cuts off whatever the update log holds beyond the catalog
// epoch — a record of a commit that crashed between its log append and
// its catalog rename, or an append torn by a short write; neither was ever
// acknowledged — so the next commit's record lands right behind the last
// acknowledged one. A log that does not carry every epoch up to the
// catalog's refuses the attach, as it refuses the open.
//
// Serving layers call it lazily, on the first update: a store that only
// answers queries never reads the document back. It writes (the
// truncation), so it belongs to the directory's single writer.
func AttachDocument(dir string, cat *store.Catalog, st *Store) error {
	if cat.DocSegment == "" {
		return fmt.Errorf("view: store %s has no persisted document; rebuild it to make it updatable", dir)
	}
	_, cut, err := acknowledgedLog(dir, cat)
	if err != nil {
		return err
	}
	if st.Document() == nil {
		if st.Epoch() != cat.DocEpoch {
			return fmt.Errorf("view: store is at epoch %d without a document; only one opened at the checkpoint epoch %d can attach it", st.Epoch(), cat.DocEpoch)
		}
		doc, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment))
		if err != nil {
			return err
		}
		st.SetDocument(doc)
	}
	if cut >= 0 {
		if err := store.TruncateUpdateLog(dir, cut); err != nil {
			return fmt.Errorf("view: dropping unacknowledged update log tail: %w", err)
		}
	}
	return nil
}

// UpdateStore applies an update batch to a store directory offline: open
// as the writer (replaying the update log), maintain, persist, and
// checkpoint when the log has grown to CheckpointEvery epochs. It is the
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
	if _, err := Checkpoint(dir, cat, st); err != nil {
		return res, fmt.Errorf("view: batch committed at epoch %d, but the checkpoint failed: %w", res.Epoch, err)
	}
	return res, nil
}

// CompactStore checkpoints a store directory offline: the log is folded
// into fresh base segments and a fresh document checkpoint (Checkpoint).
// Extents are unchanged (the store answers queries identically); the epoch
// is preserved.
func CompactStore(dir string) (*CheckpointResult, error) {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	return CompactCatalog(dir, cat)
}

// CompactCatalog is CompactStore for callers that hold the directory's
// catalog object, which it advances. It opens the directory's extents
// itself, so it must not run beside a writer holding an open store: such a
// writer checkpoints through Checkpoint.
func CompactCatalog(dir string, cat *store.Catalog) (*CheckpointResult, error) {
	views, err := ViewsFromCatalog(cat)
	if err != nil {
		return nil, err
	}
	st, err := OpenStoreWithCatalog(dir, cat, views)
	if err != nil {
		return nil, err
	}
	if err := AttachDocument(dir, cat, st); err != nil {
		return nil, err
	}
	return Checkpoint(dir, cat, st)
}
