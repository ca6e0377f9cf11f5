// Package nrel implements the nested relations produced by materialized
// views and algebraic plans (Sections 1, 4.4, 4.5 of the paper): tables
// whose tuples hold atomic values, structural identifiers, node contents,
// the null constant ⊥, and — under nested pattern edges — nested tables.
package nrel

import (
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
	if v.Kind == KindString {
		return v.Str
	}
	return string(AppendValue(nil, v))
}

// AppendValue appends v's Render form to b and returns the extended buffer.
func AppendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, "⊥"...)
	case KindString:
		return append(b, v.Str...)
	case KindID:
		return v.ID.AppendTo(b)
	case KindContent:
		if v.Content == nil {
			return append(b, "⊥"...)
		}
		return v.Content.Root.AppendTo(b)
	case KindTable:
		return v.Table.appendCompact(b)
	}
	return append(b, '?')
}

// rowSep separates a row's values in its rendering.
const rowSep = " | "

// AppendRow appends row's rendering — its values' Render forms joined
// with " | " — to b and returns the extended buffer. The rendering is a
// row's identity under set semantics and its /query sort key.
func AppendRow(b []byte, row Tuple) []byte {
	for i, v := range row {
		if i > 0 {
			b = append(b, rowSep...)
		}
		b = AppendValue(b, v)
	}
	return b
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
// removed (set semantics), preserving first-occurrence order. Rows are
// duplicates when they render identically. Tuples are shared with r.
func (r *Relation) Distinct() *Relation {
	out, _ := renderRows(r.Cols, r.Rows, true)
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

// canonical renders the distinct rows in sorted order, one per line.
func (r *Relation) canonical() string {
	_, rd := renderRows(r.Cols, r.Rows, true)
	var b strings.Builder
	b.Grow(len(rd.buf) + rd.Len())
	for n, i := range rd.order(0, rd.Len()) {
		if n > 0 {
			b.WriteByte('\n')
		}
		b.Write(rd.row(i))
	}
	return b.String()
}

// String renders the relation as a small text table with a header.
func (r *Relation) String() string {
	if r == nil {
		return "[]"
	}
	b := append([]byte(strings.Join(r.Cols, rowSep)), '\n')
	for _, row := range r.Rows {
		b = append(AppendRow(b, row), '\n')
	}
	return string(b)
}

// appendCompact appends the nested-table form of r: its rows' renderings
// joined with "; " inside brackets.
func (r *Relation) appendCompact(b []byte) []byte {
	b = append(b, '[')
	if r != nil {
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, "; "...)
			}
			b = AppendRow(b, row)
		}
	}
	return append(b, ']')
}

// Sorted returns the rows, duplicates included, in the /query response
// order: ascending by rendering, compared byte-wise. Rows that render
// identically keep their input order. Tuples are shared with r.
func (r *Relation) Sorted() *Relation {
	all, rd := renderRows(r.Cols, r.Rows, false)
	out := NewRelation(r.Cols...)
	out.Rows = make([]Tuple, len(all.Rows))
	for n, i := range rd.order(0, rd.Len()) {
		out.Rows[n] = all.Rows[i]
	}
	return out
}
