// Package nrel implements the nested relations produced by materialized
// views and algebraic plans (Sections 1, 4.4, 4.5 of the paper): tables
// whose tuples hold atomic values, structural identifiers, node contents,
// the null constant ⊥, and — under nested pattern edges — nested tables.
package nrel

import (
	"sort"
	"strings"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/xmltree"
)

// Kind discriminates the variants of a Value.
type Kind int

const (
	// KindNull is the null constant ⊥ produced by optional edges.
	KindNull Kind = iota
	// KindString is an atomic value (a node label or text value).
	KindString
	// KindID is a structural identifier.
	KindID
	// KindContent is a node's content: the subtree rooted at the node.
	KindContent
	// KindTable is a nested table produced by a nested edge.
	KindTable
)

// Value is one field of a tuple.
type Value struct {
	Kind    Kind
	Str     string
	ID      nodeid.ID
	Content *xmltree.Document
	Table   *Relation
}

// Null is the ⊥ value.
func Null() Value { return Value{Kind: KindNull} }

// String wraps an atomic string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// ID wraps a structural identifier.
func ID(id nodeid.ID) Value { return Value{Kind: KindID, ID: id} }

// Content wraps a node's content subtree.
func Content(d *xmltree.Document) Value { return Value{Kind: KindContent, Content: d} }

// Table wraps a nested relation.
func Table(r *Relation) Value { return Value{Kind: KindTable, Table: r} }

// IsNull reports whether the value is ⊥.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Render returns a deterministic textual form of the value, used for
// printing, equality, and sorting.
func (v Value) Render() string {
	switch v.Kind {
	case KindNull:
		return "⊥"
	case KindString:
		return v.Str
	case KindID:
		return v.ID.String()
	case KindContent:
		if v.Content == nil {
			return "⊥"
		}
		return v.Content.Root.String()
	case KindTable:
		if v.Table == nil {
			return "[]"
		}
		return v.Table.render(true)
	}
	return "?"
}

// Equal reports deep equality of two values. Nested tables compare as sets
// of tuples (order-insensitive), matching the set semantics of pattern
// results.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindString:
		return v.Str == o.Str
	case KindID:
		return v.ID.Equal(o.ID)
	case KindContent:
		return v.Render() == o.Render()
	case KindTable:
		return v.Table.EqualAsSet(o.Table)
	}
	return false
}

// Tuple is one row of a relation.
type Tuple []Value

// Relation is a nested table with named columns.
type Relation struct {
	Cols []string
	Rows []Tuple
}

// NewRelation creates an empty relation with the given column names.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: cols}
}

// Append adds a row; it must have exactly len(Cols) values.
func (r *Relation) Append(row Tuple) {
	if len(row) != len(r.Cols) {
		panic("nrel: row arity mismatch")
	}
	r.Rows = append(r.Rows, row)
}

// Len returns the number of rows.
func (r *Relation) Len() int {
	if r == nil {
		return 0
	}
	return len(r.Rows)
}

// ColIndex returns the index of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Project returns a new relation keeping only the named columns, in order.
func (r *Relation) Project(cols ...string) *Relation {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := r.ColIndex(c)
		if j < 0 {
			panic("nrel: unknown column " + c)
		}
		idx[i] = j
	}
	out := NewRelation(cols...)
	for _, row := range r.Rows {
		nr := make(Tuple, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.Append(nr)
	}
	return out
}

// Distinct returns a fresh relation, header included, with duplicate rows
// removed (set semantics), preserving first-occurrence order. Tuples are
// shared with r.
func (r *Relation) Distinct() *Relation {
	out := NewRelation(append([]string(nil), r.Cols...)...)
	out.Rows = make([]Tuple, 0, len(r.Rows))
	seen := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		k := renderRow(row)
		if !seen[k] {
			seen[k] = true
			out.Append(row)
		}
	}
	return out
}

// EqualAsSet reports whether two relations have the same columns and the
// same set of rows, ignoring order and duplicates.
func (r *Relation) EqualAsSet(o *Relation) bool {
	if r == nil || o == nil {
		return r.Len() == 0 && o.Len() == 0
	}
	if len(r.Cols) != len(o.Cols) {
		return false
	}
	return r.canonical() == o.canonical()
}

func (r *Relation) canonical() string {
	rows := make([]string, 0, len(r.Rows))
	seen := map[string]bool{}
	for _, row := range r.Rows {
		k := renderRow(row)
		if !seen[k] {
			seen[k] = true
			rows = append(rows, k)
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func renderRow(row Tuple) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Render()
	}
	return strings.Join(parts, " | ")
}

// String renders the relation as a small text table with a header.
func (r *Relation) String() string { return r.render(false) }

func (r *Relation) render(compact bool) string {
	if r == nil {
		return "[]"
	}
	var b strings.Builder
	if compact {
		b.WriteByte('[')
		for i, row := range r.Rows {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(renderRow(row))
		}
		b.WriteByte(']')
		return b.String()
	}
	b.WriteString(strings.Join(r.Cols, " | "))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(renderRow(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderedRow is a row with its values rendered: Parts[i] is
// Row[i].Render() and Key is the parts joined with " | ".
type RenderedRow struct {
	Key   string
	Parts []string
	Row   Tuple
}

// RenderSorted renders each row once and returns the rows in the /query
// response order: ascending by Key, compared byte-wise. Rows whose keys
// tie render identically, so the order among them is unobservable.
func (r *Relation) RenderSorted() []RenderedRow {
	out := make([]RenderedRow, len(r.Rows))
	parts := make([]string, 0, len(r.Rows)*len(r.Cols))
	for i, row := range r.Rows {
		start := len(parts)
		for _, v := range row {
			parts = append(parts, v.Render())
		}
		p := parts[start:len(parts):len(parts)]
		out[i] = RenderedRow{Key: strings.Join(p, " | "), Parts: p, Row: row}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Sorted returns the rows in the /query response order of RenderSorted.
func (r *Relation) Sorted() *Relation {
	out := NewRelation(r.Cols...)
	out.Rows = make([]Tuple, r.Len())
	for i, rr := range r.RenderSorted() {
		out.Rows[i] = rr.Row
	}
	return out
}
