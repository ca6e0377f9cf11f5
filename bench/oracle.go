package main

import (
	"fmt"
	"path/filepath"
	"sort"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// answer is the in-process evaluation of one query over the document: the
// rows exactly as the daemon orders and renders them.
type answer struct {
	cols []string
	rows [][]string
}

// evaluate runs the pattern through the library's own evaluator — the one
// view extents are materialized with — bypassing views, rewriting and the
// algebra: an answer the daemon can only match by being right.
func evaluate(doc *xmltree.Document, query string) (*answer, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rel := view.MaterializeFlat(&core.View{Name: "oracle", Pattern: p}, doc).Sorted()
	a := &answer{cols: rel.Cols, rows: make([][]string, len(rel.Rows))}
	for i, row := range rel.Rows {
		r := make([]string, len(row))
		for j, v := range row {
			r[j] = v.Render()
		}
		a.rows[i] = r
	}
	return a, nil
}

// window hashes the rows a request with this limit and offset must return.
func (a *answer) window(limit, offset int) uint64 {
	if limit < 0 {
		limit = len(a.rows) // the daemon's default cap (10000) exceeds every extent here
	}
	if offset > len(a.rows) {
		offset = len(a.rows)
	}
	end := offset + limit
	if end > len(a.rows) {
		end = len(a.rows)
	}
	return hashWindow(a.cols, a.rows[offset:end])
}

// oracle checks answers against a document. Expected answers are cached by
// query text; a write workload computes the pool's answers before its first
// update, since the document it then mutates is the same object.
type oracle struct {
	doc     *xmltree.Document
	answers map[string]*answer
}

func newOracle(doc *xmltree.Document) *oracle {
	return &oracle{doc: doc, answers: map[string]*answer{}}
}

func (o *oracle) expect(query string) (*answer, error) {
	if a, ok := o.answers[query]; ok {
		return a, nil
	}
	a, err := evaluate(o.doc, query)
	if err != nil {
		return nil, err
	}
	o.answers[query] = a
	return a, nil
}

// ackLog maps an epoch to the net item inserts acked up to it.
type ackLog struct {
	epochs []int64
	net    []int // cumulative, parallel to epochs
}

func newAckLog(updates []opResult) *ackLog {
	acked := make([]opResult, 0, len(updates))
	for _, u := range updates {
		if u.ok() {
			acked = append(acked, u)
		}
	}
	sort.SliceStable(acked, func(i, j int) bool { return acked[i].ackEpoch < acked[j].ackEpoch })
	l := &ackLog{}
	sum := 0
	for _, u := range acked {
		sum += u.req.itemDelta
		if n := len(l.epochs); n > 0 && l.epochs[n-1] == u.ackEpoch {
			l.net[n-1] = sum // group commit: several acks share an epoch
			continue
		}
		l.epochs = append(l.epochs, u.ackEpoch)
		l.net = append(l.net, sum)
	}
	return l
}

// netAt returns the net item inserts visible at epoch e.
func (l *ackLog) netAt(e int64) int {
	i := sort.Search(len(l.epochs), func(i int) bool { return l.epochs[i] > e })
	if i == 0 {
		return 0
	}
	return l.net[i-1]
}

func (l *ackLog) lastEpoch() int64 {
	if len(l.epochs) == 0 {
		return 0
	}
	return l.epochs[len(l.epochs)-1]
}

// checkQuery reports why a query result is wrong, or nil. Reads of the
// unfiltered item scans at epochs > 0 are held to the ack log's count (their
// first window moves with concurrent inserts); every other read must match
// the epoch-0 answer in count and first window, because no update touches
// the rows it selects.
func (o *oracle) checkQuery(r *opResult, acks *ackLog) error {
	if !r.ok() {
		return r.err
	}
	want, err := o.expect(r.req.query)
	if err != nil {
		return err
	}
	if r.req.itemCount && r.epoch > 0 {
		if exp := len(want.rows) + acks.netAt(r.epoch); r.total != exp {
			return fmt.Errorf("%s at epoch %d: %d rows, acks imply %d", r.req.target, r.epoch, r.total, exp)
		}
		return nil
	}
	if r.total != len(want.rows) {
		return fmt.Errorf("%s: %d rows, oracle has %d", r.req.target, r.total, len(want.rows))
	}
	if r.window != want.window(r.req.limit, r.req.offset) {
		return fmt.Errorf("%s: first window differs from the oracle's", r.req.target)
	}
	return nil
}

// checkReopened verifies durability of everything acked: after the daemon
// stopped gracefully the directory must reopen at the last acked epoch with
// the item extents at the acked row count. (No crash is simulated: the OS
// cache survives a SIGTERM; see ROADMAP item 4.)
func checkReopened(dir string, wantEpoch int64, wantItems int) error {
	cat, err := store.OpenCatalog(dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if cat.Epoch != wantEpoch {
		return fmt.Errorf("reopen: catalog at epoch %d, last ack was %d", cat.Epoch, wantEpoch)
	}
	views, err := view.ViewsFromCatalog(cat)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	st, err := view.OpenStoreWithCatalog(dir, cat, views)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	for _, v := range views {
		if v.Name != "VITEM" && v.Name != "VITEMLOC" {
			continue
		}
		if got := st.Relation(v).Len(); got != wantItems {
			return fmt.Errorf("reopen: %s has %d rows, acks imply %d", v.Name, got, wantItems)
		}
	}
	if _, err := store.ReadDocumentFile(filepath.Join(dir, cat.DocSegment)); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	return nil
}
