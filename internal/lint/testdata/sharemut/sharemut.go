// Package sharemut exercises the clone-before-mutate analyzer: values
// obtained from //xvlint:sharedreturn accessors must not be written
// through until cloned. The types model the view store's surface
// (relations whose backing arrays are shared with the cache and every
// concurrent reader) without importing it, so the fixture stays
// self-contained.
package sharemut

import "sort"

// Tuple is one row; its cells alias the segment's decoded strings.
type Tuple []string

// Relation is a cached extent: header plus rows.
type Relation struct {
	Cols []string
	Rows []Tuple
	Name string
}

// Clone copies the header and the row slice (row values stay shared,
// which matches the real store's copy-on-write depth).
func (r *Relation) Clone() *Relation {
	return &Relation{
		Cols: append([]string(nil), r.Cols...),
		Rows: append([]Tuple(nil), r.Rows...),
		Name: r.Name,
	}
}

// Append grows the relation in place.
func (r *Relation) Append(t Tuple) {
	r.Rows = append(r.Rows, t)
}

// Store caches one extent per view name.
type Store struct {
	rels map[string]*Relation
}

// Relation returns the cached extent. The backing storage is shared
// with the cache and every concurrent reader.
//
//xvlint:sharedreturn
func (s *Store) Relation(name string) *Relation {
	return s.rels[name]
}

// Lookup is a trivial wrapper; the sharedreturn fact must propagate
// through it.
func Lookup(s *Store, name string) *Relation {
	return s.Relation(name)
}

// fill writes an ID column into every row, through its parameter.
func fill(r *Relation) {
	for i := range r.Rows {
		r.Rows[i] = append(r.Rows[i], "id")
	}
}

func DirectFieldWrite(s *Store) {
	rel := s.Relation("v")
	rel.Name = "renamed" // want `shared via`
}

func IndexWrite(s *Store) {
	rel := s.Relation("v")
	rel.Rows[0] = Tuple{"x"} // want `shared via`
}

func AppendIntoShared(s *Store) []string {
	rel := s.Relation("v")
	return append(rel.Cols, "extra") // want `shared via`
}

func MutatingMethod(s *Store) {
	rel := s.Relation("v")
	rel.Append(Tuple{"x"}) // want `shared via`
}

func RangeRowWrite(s *Store) {
	rel := s.Relation("v")
	for _, row := range rel.Rows {
		row[0] = "id" // want `shared via`
	}
}

func ViaWrapper(s *Store) {
	rel := Lookup(s, "v")
	rel.Cols[0] = "renamed" // want `shared via`
}

func SortShared(s *Store) {
	rel := s.Relation("v")
	sort.Slice(rel.Rows, func(i, j int) bool { // want `shared via`
		return len(rel.Rows[i]) < len(rel.Rows[j])
	})
}

func CopyIntoShared(s *Store, fresh []Tuple) {
	rel := s.Relation("v")
	copy(rel.Rows, fresh) // want `shared via`
}

// CloneFirst is the sanctioned idiom: a bare reassignment through
// Clone launders the taint.
func CloneFirst(s *Store) {
	rel := s.Relation("v")
	rel = rel.Clone()
	rel.Name = "mine"
	fill(rel)
}

// CopyOut clones by hand: copying FROM the shared extent into a fresh
// slice is reading, not writing.
func CopyOut(s *Store) []Tuple {
	rel := s.Relation("v")
	rows := make([]Tuple, len(rel.Rows))
	copy(rows, rel.Rows)
	rows[0] = Tuple{"x"}
	return rows
}

// StructCopyStaysLocal: assigning a field of a by-value copy never
// reaches the shared storage, because no pointer-like step is crossed.
type header struct{ Name string }

type described struct {
	Hdr  header
	Rows []Tuple
}

// Described returns the shared descriptor.
//
//xvlint:sharedreturn
func (s *Store) Described(name string) described {
	return described{}
}

func StructCopyStaysLocal(s *Store) header {
	d := s.Described("v")
	h := d.Hdr
	h.Name = "local"
	return h
}

// Waived: the annotation records the reviewed reason aliasing is safe
// here (e.g. single-owner construction before publication).
func WaivedWrite(s *Store) {
	rel := s.Relation("v")
	//xvlint:aliasok construction path: store not yet published to readers
	rel.Name = "boot"
}

// ReadOnly never writes; reads through shared values are always fine.
func ReadOnly(s *Store) int {
	rel := s.Relation("v")
	n := len(rel.Rows)
	for _, row := range rel.Rows {
		n += len(row)
	}
	return n
}

// Reader is the accessor behind an interface (algebra.Reader's shape): the
// directive on the method declaration keeps calls through it tracked.
type Reader interface {
	//xvlint:sharedreturn
	Relation(name string) *Relation
	// Fresh builds a private relation; no directive, no taint.
	Fresh(name string) *Relation
}

func ThroughInterface(r Reader) {
	rel := r.Relation("v")
	rel.Cols[0] = "renamed" // want `shared via`
}

func ThroughInterfaceFresh(r Reader) {
	rel := r.Fresh("v")
	rel.Cols[0] = "mine"
}
