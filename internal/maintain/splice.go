package maintain

import (
	"sort"

	"xmlviews/internal/nrel"
)

// Maintained extents are kept sorted by each row's rendered key (the same
// rendering set semantics uses for row identity everywhere). The sorted
// invariant is what makes per-batch maintenance proportional to the delta:
// membership tests and splices are binary searches instead of full-extent
// map builds.

// SortByKey returns a copy of the relation with rows sorted by their
// rendered keys. Keys are computed once per row (O(n) renders, not
// O(n log n)). view.Store establishes the maintained-extent invariant with
// it when updates begin.
//
//xvlint:nopoll runs once per view on the single updater when updates begin; sorts cannot be resumed
func SortByKey(r *nrel.Relation) *nrel.Relation {
	out := nrel.NewRelation(r.Cols...)
	out.Rows = append([]nrel.Tuple(nil), r.Rows...)
	keys := make([]string, len(out.Rows))
	for i, row := range out.Rows {
		keys[i] = rowKey(row)
	}
	sort.Sort(&keyedRows{rows: out.Rows, keys: keys})
	return out
}

type keyedRows struct {
	rows []nrel.Tuple
	keys []string
}

func (k *keyedRows) Len() int           { return len(k.rows) }
func (k *keyedRows) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedRows) Swap(i, j int) {
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// keyCache memoizes rendered row keys during one splice. The binary
// searches for a batch's delta rows revisit the same upper midpoints, and
// rendering a row is not free (content columns serialize whole subtrees),
// so each probed row is rendered at most once per splice. Rows are
// identified by their first value's address: splices move tuple headers
// around, but a row's backing values stay put, so the identity survives
// the memmoves (unlike an index or a slice-element pointer).
type keyCache map[*nrel.Value]string

func (kc keyCache) key(row nrel.Tuple) string {
	if len(row) == 0 {
		return rowKey(row)
	}
	p := &row[0]
	if k, ok := kc[p]; ok {
		return k
	}
	k := rowKey(row)
	kc[p] = k
	return k
}

// spliceSorted applies a small delta to a key-sorted extent in place:
// deleted keys leave, added rows enter at their sorted position when
// absent. It reports which rows actually changed membership, so callers
// can accumulate exact net deltas under set semantics. Cost per delta row
// is O(log n) key comparisons (probed keys render once per splice) plus
// the memmove.
//
//xvlint:nopoll in-place extent mutation on the single updater; a partial splice is a corrupt extent
func spliceSorted(rel *nrel.Relation, adds, dels *nrel.Relation) (added, deleted []nrel.Tuple) {
	kc := keyCache{}
	search := func(key string) (int, bool) {
		pos := sort.Search(len(rel.Rows), func(i int) bool { return kc.key(rel.Rows[i]) >= key })
		return pos, pos < len(rel.Rows) && kc.key(rel.Rows[pos]) == key
	}
	for _, row := range dels.Rows {
		if pos, ok := search(rowKey(row)); ok {
			rel.Rows = append(rel.Rows[:pos], rel.Rows[pos+1:]...)
			deleted = append(deleted, row)
		}
	}
	for _, row := range adds.Rows {
		key := rowKey(row)
		if pos, ok := search(key); !ok {
			rel.Rows = append(rel.Rows, nil)
			copy(rel.Rows[pos+1:], rel.Rows[pos:])
			rel.Rows[pos] = row
			added = append(added, row)
		}
	}
	return added, deleted
}

// diffKeyed returns the rows of b absent from a (adds) and the rows of a
// absent from b (dels), under set semantics; a may be nil (everything in b
// is an add). Both inputs are small scoped relations, so plain maps are
// fine here.
//
//xvlint:nopoll inputs are one update's scoped evaluations, bounded by scope size
func diffKeyed(a, b *nrel.Relation) (adds, dels *nrel.Relation) {
	adds, dels = nrel.NewRelation(b.Cols...), nrel.NewRelation(b.Cols...)
	var aKeys map[string]bool
	if a != nil {
		aKeys = make(map[string]bool, len(a.Rows))
		for _, row := range a.Rows {
			aKeys[rowKey(row)] = true
		}
	}
	bKeys := make(map[string]bool, b.Len())
	for _, row := range b.Rows {
		k := rowKey(row)
		bKeys[k] = true
		if !aKeys[k] {
			adds.Rows = append(adds.Rows, row)
		}
	}
	if a != nil {
		for _, row := range a.Rows {
			if !bKeys[rowKey(row)] {
				dels.Rows = append(dels.Rows, row)
			}
		}
	}
	return adds, dels
}

// netDelta accumulates one view's membership changes across the updates of
// a batch: a row added then deleted (or vice versa) nets out.
type netDelta struct {
	add map[string]nrel.Tuple
	del map[string]nrel.Tuple
}

func newNetDelta() *netDelta {
	return &netDelta{add: map[string]nrel.Tuple{}, del: map[string]nrel.Tuple{}}
}

func (nd *netDelta) addRow(row nrel.Tuple) {
	k := rowKey(row)
	if _, ok := nd.del[k]; ok {
		delete(nd.del, k)
		return
	}
	nd.add[k] = row
}

func (nd *netDelta) delRow(row nrel.Tuple) {
	k := rowKey(row)
	if _, ok := nd.add[k]; ok {
		delete(nd.add, k)
		return
	}
	nd.del[k] = row
}

func (nd *netDelta) empty() bool { return len(nd.add) == 0 && len(nd.del) == 0 }

// relations renders the accumulated delta as two relations with rows in
// key order, so batch results are deterministic.
func (nd *netDelta) relations(cols []string) (adds, dels *nrel.Relation) {
	adds, dels = nrel.NewRelation(cols...), nrel.NewRelation(cols...)
	for _, m := range []struct {
		src map[string]nrel.Tuple
		dst *nrel.Relation
	}{{nd.add, adds}, {nd.del, dels}} {
		keys := make([]string, 0, len(m.src))
		for k := range m.src {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m.dst.Rows = append(m.dst.Rows, m.src[k])
		}
	}
	return adds, dels
}
