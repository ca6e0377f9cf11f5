package nrel

// Extent is a read-only handle on a relation. Stored view extents are
// handed out this way, because every concurrent plan reads the same one,
// and so are the intermediate results the executor passes between
// operators. The handle exposes no row slice and no tuple: a holder can
// read values but cannot append to, sort or write into the rows. To
// write, take a private copy with Clone, or build a fresh relation with
// AppendRow and AppendValues. Values themselves are immutable by
// convention, as everywhere in this package: their IDs, contents and
// nested tables are shared.
type Extent struct{ r *Relation }

// Extent returns a read-only handle on r.
func (r *Relation) Extent() Extent { return Extent{r} }

// Len returns the number of rows.
func (e Extent) Len() int { return e.r.Len() }

// ColIndex returns the index of the named column, or -1.
func (e Extent) ColIndex(name string) int { return e.r.ColIndex(name) }

// Cols returns a copy of the column names.
func (e Extent) Cols() []string { return append([]string(nil), e.r.Cols...) }

// At returns the value in row i, column j.
func (e Extent) At(i, j int) Value { return e.r.Rows[i][j] }

// Clone returns a private copy with its own header, row slice and tuples,
// free to be written. Values are shared.
func (e Extent) Clone() *Relation {
	out := NewRelation(e.Cols()...)
	out.Rows = make([]Tuple, len(e.r.Rows))
	for i, row := range e.r.Rows {
		out.Rows[i] = append(Tuple(nil), row...)
	}
	return out
}

// AppendRow appends row i to dst without copying it: dst shares the
// tuple, so dst must be a relation the caller built and passes on only as
// an Extent or as a result its readers do not write into.
func (e Extent) AppendRow(dst *Relation, i int) { dst.Append(e.r.Rows[i]) }

// AppendValues appends a copy of row i's values to dst and returns the
// extended tuple.
func (e Extent) AppendValues(dst Tuple, i int) Tuple { return append(dst, e.r.Rows[i]...) }

// Distinct returns a fresh relation of the distinct rows, as
// Relation.Distinct does.
func (e Extent) Distinct() *Relation { return e.r.Distinct() }
