// Package view materializes tree pattern views over documents and manages
// the resulting nested tables (Figure 1(c) of the paper).
//
// Two forms are produced. The nested form is the paper's view extent: one
// table column per nested edge, ⊥ for optional non-bindings. The flat form
// unnests every table and is the substrate the algebra executor operates
// on; re-nesting happens at plan output according to the plan's nesting
// sequences.
package view

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// Materialize evaluates the view definition over the document and returns
// its nested extent.
func Materialize(v *core.View, doc *xmltree.Document) *nrel.Relation {
	return v.Pattern.Eval(doc)
}

// MaterializeFlat evaluates the view with nested edges flattened and
// content stored with original identifiers. Columns are named s<k>.<attr>
// for slot k (id, l, v, c). When the view carries reasoning-only virtual
// attributes (Stored != nil), only the stored pattern is evaluated and its
// columns are named after the prepared slot indexes; the executor derives
// the virtual columns.
func MaterializeFlat(v *core.View, doc *xmltree.Document) *nrel.Relation {
	pat := v.Pattern
	slotMap := func(k int) int { return k }
	if v.Stored != nil {
		pat = v.Stored
		slotMap = func(k int) int { return v.StoredSlotMap[k] }
	}
	flat := flattened(pat)
	raw := flat.Eval(doc)
	return renameToSlots(flat, raw, slotMap)
}

// MaterializeFlatScoped evaluates the witnessed scoped extent the
// maintenance engine's fast path needs: the flattened pattern is evaluated
// only on the chain and subtree of root (pattern.EvalScope), and rows are
// kept only when their witness identifier — the id column of the
// flattened pattern's witnessReturn-th return node — lies at or below
// root. See internal/maintain/scope.go for why this subset is exactly the
// extent's changeable region.
func MaterializeFlatScoped(v *core.View, doc *xmltree.Document, root nodeid.ID, witnessReturn int) *nrel.Relation {
	pat := v.Pattern
	slotMap := func(k int) int { return k }
	if v.Stored != nil {
		pat = v.Stored
		slotMap = func(k int) int { return v.StoredSlotMap[k] }
	}
	flat := flattened(pat)
	raw := flat.EvalScope(doc, pattern.Scope{Root: root})
	rel := renameToSlots(flat, raw, slotMap)
	idx := rel.ColIndex(SlotCol(slotMap(witnessReturn), "id"))
	if idx < 0 {
		panic(fmt.Sprintf("view: witness id column missing in scoped extent of %q", v.Name))
	}
	out := nrel.NewRelation(rel.Cols...)
	for _, row := range rel.Rows {
		w := row[idx]
		if w.Kind == nrel.KindID && (root.Equal(w.ID) || root.IsAncestorOf(w.ID)) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// flattened strips nesting markers so that Eval yields flat rows.
func flattened(p *pattern.Pattern) *pattern.Pattern {
	c := p.Clone()
	for _, n := range c.Nodes() {
		n.Nested = false
	}
	return c.Finish()
}

// renameToSlots maps the evaluator's per-node column names (I3, V3, ...)
// to per-slot names (s0.id, s0.v, ...).
func renameToSlots(p *pattern.Pattern, rel *nrel.Relation, slotMap func(int) int) *nrel.Relation {
	names := map[string]string{}
	for k, rn := range p.Returns() {
		idx := rn.Index
		slot := slotMap(k)
		names[fmt.Sprintf("I%d", idx)] = SlotCol(slot, "id")
		names[fmt.Sprintf("L%d", idx)] = SlotCol(slot, "l")
		names[fmt.Sprintf("V%d", idx)] = SlotCol(slot, "v")
		names[fmt.Sprintf("C%d", idx)] = SlotCol(slot, "c")
	}
	out := nrel.NewRelation()
	for _, c := range rel.Cols {
		n, ok := names[c]
		if !ok {
			n = c
		}
		out.Cols = append(out.Cols, n)
	}
	out.Rows = rel.Rows
	return out
}

// SlotCol names the column of slot k's attribute.
func SlotCol(k int, attr string) string { return fmt.Sprintf("s%d.%s", k, attr) }

// DefaultMaxVersions bounds how many extent versions a store tracks (the
// live one plus retained superseded ones) when SetMaxVersions has not
// been called.
const DefaultMaxVersions = 8

// extentVersion is one immutable set of view extents, tagged with the
// maintenance epoch that produced it. Versions are never mutated after
// installation: every change to the live store clones the maps and
// installs a fresh version, so a pinned version reads consistently
// forever.
type extentVersion struct {
	epoch int64
	// sorted records that every base-view extent in this version is
	// key-sorted (the maintenance engine's splice invariant); established
	// copy-on-write when updates begin.
	sorted   bool
	rels     map[string]*nrel.Relation
	prepared map[string]*nrel.Relation
	// zoneSeeds holds zone maps read from base segments at open time, valid
	// only while the extent keeps the segment's row order (no replayed
	// deltas, no re-sort); dropped from the successor version on the first
	// invalidation.
	zoneSeeds map[string]*store.ZoneMap
	// refs counts snapshots pinning this version; guarded by the owning
	// Store's mu.
	refs int
}

// clone copies the version's maps so a successor can diverge without
// touching pinned readers.
func (v *extentVersion) clone() *extentVersion {
	nv := &extentVersion{epoch: v.epoch, sorted: v.sorted,
		rels:     make(map[string]*nrel.Relation, len(v.rels)),
		prepared: make(map[string]*nrel.Relation, len(v.prepared))}
	for k, r := range v.rels {
		nv.rels[k] = r
	}
	for k, r := range v.prepared {
		nv.prepared[k] = r
	}
	if len(v.zoneSeeds) > 0 {
		nv.zoneSeeds = make(map[string]*store.ZoneMap, len(v.zoneSeeds))
		for k, z := range v.zoneSeeds {
			nv.zoneSeeds[k] = z
		}
	}
	return nv
}

// lookupIn checks a version's extent maps for the view.
func lookupIn(ver *extentVersion, v *core.View) (*nrel.Relation, bool) {
	if v.Stored != nil {
		r, ok := ver.prepared[preparedKey(v)]
		return r, ok
	}
	r, ok := ver.rels[v.Name]
	return r, ok
}

// blockCache caches columnar block handles across extent versions; it is
// shared by a live store and all its snapshots. Each handle records the
// exact relation it was built over (Blocks.Rel), so a cached handle is
// served only to a caller holding that same relation pointer — an entry
// left behind by a superseded version is just a miss, overwritten by the
// next build. Nil-safe so zero-value Stores degrade to uncached builds.
type blockCache struct {
	mu sync.Mutex
	m  map[string]*store.Blocks
}

func newBlockCache() *blockCache { return &blockCache{m: map[string]*store.Blocks{}} }

func (c *blockCache) get(key string, rel *nrel.Relation) *store.Blocks {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.m[key]; b != nil && b.Rel == rel {
		return b
	}
	return nil
}

func (c *blockCache) put(key string, b *store.Blocks) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[key] = b
	c.mu.Unlock()
}

// Store holds materialized (flat) view extents by name, multi-versioned:
// the live extent set is an immutable extentVersion, and every mutation
// (an update batch, a lazy materialization, a Put) installs a fresh
// version copy-on-write. Snapshot pins the live version in O(1) and
// readers execute whole plans against the pin while ApplyUpdates installs
// successors without waiting for them; a superseded version is retained
// until its last pin drops (Snapshot.Release), within a bounded window
// (see SetMaxVersions) so slow readers can never make the store
// accumulate versions without bound.
//
// Prepared views (those carrying reasoning-only virtual attributes) are
// cached separately because their column naming differs from the stored
// definition's.
//
// A Store is safe for concurrent use by readers and one updater: lazy
// materialization uses double-checked locking, so many goroutines can
// execute plans against one store. Callers that apply updates must
// serialize ApplyUpdates calls among themselves (delta chains append in
// epoch order) and must not concurrently materialize from the live
// document — serving layers give the store to one committer goroutine
// and hand everyone else a Snapshot, which never touches the document.
type Store struct {
	mu    sync.RWMutex
	doc   *xmltree.Document // nil for disk-backed stores until SetDocument
	views []*core.View
	// msum is the incrementally maintained summary, built lazily on the
	// first update batch and advanced with each one, so per-batch summary
	// cost is O(change), not O(document). Owned by the updater.
	msum *summary.Maintained
	// cur is the live extent version; guarded by mu.
	cur *extentVersion
	// retained holds superseded versions still pinned by snapshots, oldest
	// first, bounded by maxVersions; guarded by mu.
	retained    []*extentVersion
	maxVersions int // 0 means DefaultMaxVersions
	// blocks caches columnar block handles, shared with snapshots (it
	// validates by relation pointer, so versions cannot cross-contaminate).
	blocks *blockCache
}

// Snapshot is a read-only view of one pinned extent version: later
// ApplyUpdates calls on the parent store install successor versions and
// cannot affect it, so a multi-view plan executed against it sees one
// consistent epoch. It carries no document (prepared extents derive from
// the frozen bases by renaming) and has no mutating method.
type Snapshot struct {
	parent *Store
	ver    *extentVersion
	// released is guarded by parent.mu.
	released bool
	// overlay holds prepared extents derived lazily on this snapshot
	// (renamed headers over frozen bases); guarded by mu.
	mu      sync.Mutex
	overlay map[string]*nrel.Relation
}

// preparedKey identifies a prepared view's extent across rewriter clones.
func preparedKey(v *core.View) string { return v.Name + "\x1f" + v.Pattern.String() }

// extentKey is the cache key of a view's extent: the name for a base view,
// preparedKey for a prepared one.
func extentKey(v *core.View) string {
	if v.Stored != nil {
		return preparedKey(v)
	}
	return v.Name
}

// NewStore materializes all base views over the document. Derived
// navigation views are materialized lazily by the executor.
func NewStore(doc *xmltree.Document, views []*core.View) *Store {
	st := &Store{doc: doc, views: views, blocks: newBlockCache(),
		cur: &extentVersion{rels: map[string]*nrel.Relation{}, prepared: map[string]*nrel.Relation{}}}
	for _, v := range views {
		st.cur.rels[v.Name] = MaterializeFlat(v, doc)
	}
	return st
}

// Document returns the store's backing document; nil for stores opened
// from disk that have not attached one with SetDocument.
func (st *Store) Document() *xmltree.Document { return st.doc }

// SetDocument attaches the source document to a disk-opened store, making
// it updatable. The document must be the one the stored extents were
// materialized from (BuildStore persists it alongside the segments).
func (st *Store) SetDocument(doc *xmltree.Document) {
	st.mu.Lock()
	st.doc = doc
	st.msum = nil // rebuilt from the new document on the next batch
	st.mu.Unlock()
}

// Epoch returns the store's maintenance epoch: the number of update
// batches applied since the extents were built.
func (st *Store) Epoch() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.cur.epoch
}

// Snapshot pins the live extent version. Pinning is O(1) — no extents are
// copied. Callers should Release the snapshot when done so the store can
// drop superseded versions promptly; an unreleased snapshot stays
// readable regardless.
func (st *Store) Snapshot() *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cur.refs++
	return &Snapshot{parent: st, ver: st.cur}
}

// Snapshot re-pins the same version under an independent pin, so a holder
// can hand out pins that outlive its own Release.
func (sn *Snapshot) Snapshot() *Snapshot {
	sn.parent.mu.Lock()
	defer sn.parent.mu.Unlock()
	sn.ver.refs++
	return &Snapshot{parent: sn.parent, ver: sn.ver}
}

// Epoch returns the epoch of the pinned version.
func (sn *Snapshot) Epoch() int64 { return sn.ver.epoch }

// Release drops the snapshot's pin. When the last pin on a superseded
// version drops, the parent store stops retaining it. Release is
// idempotent.
func (sn *Snapshot) Release() {
	p := sn.parent
	p.mu.Lock()
	defer p.mu.Unlock()
	if sn.released {
		return
	}
	sn.released = true
	v := sn.ver
	if v.refs > 0 {
		v.refs--
	}
	if v.refs == 0 && v != p.cur {
		for i, r := range p.retained {
			if r == v {
				p.retained = append(p.retained[:i], p.retained[i+1:]...)
				break
			}
		}
	}
}

// Versions reports how many extent versions the store tracks: the live
// one plus superseded versions retained for pinned snapshots. Bounded by
// SetMaxVersions (DefaultMaxVersions when unset).
func (st *Store) Versions() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return 1 + len(st.retained)
}

// SetMaxVersions bounds the retention window: at most n versions (live
// included) are tracked, force-releasing the oldest beyond the bound so a
// stalled reader can never block or bloat the write path. Force-released
// versions stay safe for the snapshots still pinning them — those read
// through their own references; the store merely stops tracking the
// version. n <= 0 keeps the current bound.
func (st *Store) SetMaxVersions(n int) {
	if n <= 0 {
		return
	}
	st.mu.Lock()
	st.maxVersions = n
	st.trimLocked()
	st.mu.Unlock()
}

// install publishes nv as the live version; callers hold the write lock.
// The superseded version is retained while snapshots pin it, within the
// retention bound.
func (st *Store) install(nv *extentVersion) {
	old := st.cur
	st.cur = nv
	if old != nil && old.refs > 0 {
		st.retained = append(st.retained, old)
	}
	st.trimLocked()
}

// trimLocked enforces the retention bound, force-releasing oldest first;
// callers hold the write lock.
func (st *Store) trimLocked() {
	max := st.maxVersions
	if max <= 0 {
		max = DefaultMaxVersions
	}
	for len(st.retained) > 0 && 1+len(st.retained) > max {
		copy(st.retained, st.retained[1:])
		st.retained[len(st.retained)-1] = nil
		st.retained = st.retained[:len(st.retained)-1]
	}
}

// ApplyUpdates maintains the store through one typed update batch: the
// document is mutated (atomically — a failing update rolls the whole batch
// back), affected extents are re-derived through the maintenance engine's
// relevance mapping, and a successor extent version is installed with
// prepared-extent caches for changed views dropped. The returned batch
// carries the per-view tuple deltas and the rebuilt summary; the store
// epoch advances by one.
//
// When ctx carries an obs.Trace, the maintenance engine records aggregate
// "diff" and "splice" spans on it; the context is otherwise unused
// (maintenance is not cancellable mid-batch — a partial apply would desync
// extents from the document).
//
// Readers never wait: they pin versions via Snapshot and the diff/splice
// pass runs outside the store lock. Callers that apply updates must
// serialize among themselves so delta chains append in epoch order.
func (st *Store) ApplyUpdates(ctx context.Context, updates []xmltree.Update) (*maintain.Batch, error) {
	st.mu.Lock()
	if st.doc == nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("view: store has no document attached; rebuild the store or SetDocument first")
	}
	if st.msum == nil {
		// First batch since the document was attached: one O(document)
		// summary build, then every batch maintains it incrementally.
		st.msum = summary.NewMaintained(st.doc)
	}
	if !st.cur.sorted {
		// Establish the key-sorted extent invariant the scoped splice
		// depends on, installed as a fresh same-epoch version so pinned
		// snapshots keep their row order.
		nv := st.cur.clone()
		for _, v := range st.views {
			if r, ok := nv.rels[v.Name]; ok {
				nv.rels[v.Name] = maintain.SortByKey(r)
				delete(nv.zoneSeeds, v.Name)
			}
		}
		nv.sorted = true
		st.install(nv)
	}
	base := st.cur
	doc, views, msum := st.doc, st.views, st.msum
	st.mu.Unlock()

	// The diff/splice pass runs without the store lock: base is immutable,
	// and the document and summary belong to the serialized updater —
	// readers work through pinned snapshots and touch neither.
	batch, err := maintain.ComputeDeltas(doc, views, updates,
		func(v *core.View) *nrel.Relation {
			if r, ok := base.rels[v.Name]; ok {
				return r
			}
			return nrel.NewRelation(flatCols(v)...)
		}, maintain.Engine{
			Mat:           MaterializeFlat,
			MatScoped:     MaterializeFlatScoped,
			Summary:       msum,
			SortedExtents: true,
			Ctx:           ctx,
		})
	if err != nil {
		return nil, err // ComputeDeltas rolled the document back
	}

	st.mu.Lock()
	// Clone the *current* version, not base: a concurrent lazy
	// materialization may have installed extents meanwhile; the deltas'
	// base views are always present, so d.New still wins below.
	nv := st.cur.clone()
	for _, d := range batch.Deltas {
		nv.rels[d.View.Name] = d.New
		delete(nv.zoneSeeds, d.View.Name)
		prefix := d.View.Name + "\x1f"
		for k := range nv.prepared {
			if strings.HasPrefix(k, prefix) {
				delete(nv.prepared, k)
			}
		}
	}
	nv.epoch = base.epoch + 1
	st.msum = batch.Maintained
	st.install(nv)
	st.mu.Unlock()
	return batch, nil
}

// flatCols returns the column schema MaterializeFlat would produce for an
// empty extent of the view.
func flatCols(v *core.View) []string {
	pat := v.Pattern
	slotMap := func(k int) int { return k }
	if v.Stored != nil {
		pat = v.Stored
		slotMap = func(k int) int { return v.StoredSlotMap[k] }
	}
	flat := flattened(pat)
	var cols []string
	for k, rn := range flat.Returns() {
		slot := slotMap(k)
		for _, attr := range rn.Attrs.Names() {
			cols = append(cols, SlotCol(slot, attr))
		}
	}
	return cols
}

// Relation returns the flat extent of a view, materializing on demand.
// The returned relation's backing storage is shared with the store's
// cache and every concurrent reader: callers must clone before mutating.
//
//xvlint:sharedreturn
func (st *Store) Relation(v *core.View) *nrel.Relation {
	st.mu.RLock()
	r, ok := lookupIn(st.cur, v)
	st.mu.RUnlock()
	if ok {
		return r
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if r, ok := lookupIn(st.cur, v); ok {
		return r
	}
	// With a document attached the view is evaluated over it. A disk-backed
	// store has none: a prepared view's extent is then the stored base
	// extent under renamed slot columns.
	if st.doc != nil {
		r = MaterializeFlat(v, st.doc)
	} else {
		r = materializeFrom(st.cur, v)
	}
	nv := st.cur.clone()
	if v.Stored != nil {
		nv.prepared[preparedKey(v)] = r
	} else {
		nv.rels[v.Name] = r
		delete(nv.zoneSeeds, v.Name)
		nv.sorted = false // fresh eval order; re-sorted on the next batch
	}
	st.install(nv)
	return r
}

// Relation returns the view's extent at the pinned epoch: the pinned
// version first, then the snapshot's private overlay of lazily derived
// prepared extents. Shared storage, as for Store.Relation.
//
//xvlint:sharedreturn
func (sn *Snapshot) Relation(v *core.View) *nrel.Relation {
	if r, ok := lookupIn(sn.ver, v); ok {
		return r
	}
	key := extentKey(v)
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if r, ok := sn.overlay[key]; ok {
		return r
	}
	r := materializeFrom(sn.ver, v)
	if sn.overlay == nil {
		sn.overlay = map[string]*nrel.Relation{}
	}
	sn.overlay[key] = r
	return r
}

// Blocks returns a columnar block handle over the view's current extent,
// building and caching it on first use, or nil when the view cannot be
// served column-wise (navigation views build rows on the fly) or its extent
// is not materialized yet. Prepared views are served through their renamed
// extent — the rows are shared with the stored base, so the base segment's
// zone maps remain valid; virtual ID columns are NOT part of the handle
// (the executor derives them for surviving rows only). The handle is
// immutable and pinned to one extent pointer: after an update replaces the
// extent, the next call rebuilds. Zone maps persisted in the base segment
// seed the handle when the extent still has the segment's row order.
//
//xvlint:sharedreturn
func (st *Store) Blocks(v *core.View) *store.Blocks {
	st.mu.RLock()
	ver := st.cur
	st.mu.RUnlock()
	return blocksOf(st.blocks, ver, v, st.Relation)
}

// Blocks is Store.Blocks over the pinned version.
//
//xvlint:sharedreturn
func (sn *Snapshot) Blocks(v *core.View) *store.Blocks {
	return blocksOf(sn.parent.blocks, sn.ver, v, sn.Relation)
}

// blocksOf serves a block handle for the view's extent in ver from the
// shared cache. A prepared extent missing from ver materializes through
// derive (renamed header over the base extent's shared rows), which caches
// it, pinning the handle to the cached pointer.
func blocksOf(cache *blockCache, ver *extentVersion, v *core.View, derive func(*core.View) *nrel.Relation) *store.Blocks {
	if v.Nav != nil {
		return nil
	}
	rel, ok := lookupIn(ver, v)
	if !ok {
		if v.Stored == nil {
			return nil
		}
		rel = derive(v)
	}
	key := extentKey(v)
	if b := cache.get(key, rel); b != nil {
		return b
	}
	built := store.BlocksFromRelation(rel, ver.zoneSeeds[v.Name])
	cache.put(key, built)
	return built
}

// materializeFrom derives a prepared extent from a version's stored base;
// a missing base extent is a caller error.
func materializeFrom(ver *extentVersion, v *core.View) *nrel.Relation {
	base, ok := ver.rels[v.Name]
	if !ok || v.Stored == nil {
		panic(fmt.Sprintf("view: extent %q not in store and no document attached", v.Name))
	}
	return renameStored(base, v)
}

// renameStored maps a stored base extent's identity slot columns
// (s<k>.<attr> for stored slot k) to the prepared view's slot numbering
// via StoredSlotMap. Rows are shared; only the column header changes.
func renameStored(base *nrel.Relation, v *core.View) *nrel.Relation {
	names := map[string]string{}
	for k := 0; k < v.Stored.Arity(); k++ {
		for _, attr := range []string{"id", "l", "v", "c"} {
			names[SlotCol(k, attr)] = SlotCol(v.StoredSlotMap[k], attr)
		}
	}
	out := nrel.NewRelation()
	for _, c := range base.Cols {
		n, ok := names[c]
		if !ok {
			n = c
		}
		out.Cols = append(out.Cols, n)
	}
	out.Rows = base.Rows
	return out
}

// Put registers a precomputed extent (used by tests). A Put extent is not
// necessarily key-sorted, so the sorted-extent invariant is re-established
// on the next update batch.
func (st *Store) Put(name string, r *nrel.Relation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	nv := st.cur.clone()
	nv.rels[name] = r
	delete(nv.zoneSeeds, name)
	nv.sorted = false
	st.install(nv)
}

// Has reports whether the store already holds the named extent.
func (st *Store) Has(name string) bool {
	st.mu.RLock()
	_, ok := st.cur.rels[name]
	st.mu.RUnlock()
	return ok
}
