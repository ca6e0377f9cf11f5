package nrel

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Rendering is a relation's rows rendered once: each row's AppendRow form,
// back to back in one buffer, with the offsets of its rows and values.
// Everything that needs a row's text reads it from here — set semantics
// (two rows are duplicates when they render identically), the /query
// order (byte-wise on the rendering) and the response cells — so no row is
// rendered twice and no value becomes a string of its own.
type Rendering struct {
	width int
	buf   []byte
	// rowEnd[i] is where row i ends in buf; it starts where row i-1 ends.
	rowEnd []int32
	// valEnd[i*width+j] is where value j of row i ends; it starts at the
	// row's start or len(rowSep) past the end of value j-1.
	valEnd []int32
}

// rowSeed keys the duplicate-detection hash. Its value never shows: it
// decides which rows share a probe chain, not which rows are kept.
var rowSeed = maphash.MakeSeed()

// renderRows renders rows (each of len(cols) values) into one Rendering.
// With distinct set it keeps only each rendering's first occurrence; the
// relation returned holds the kept rows, sharing their tuples, and row i
// of the Rendering is its row i.
func renderRows(cols []string, rows []Tuple, distinct bool) (*Relation, *Rendering) {
	w := len(cols)
	rd := &Rendering{
		width:  w,
		rowEnd: make([]int32, 0, len(rows)),
		valEnd: make([]int32, 0, len(rows)*w),
	}
	out := NewRelation(append([]string(nil), cols...)...)
	out.Rows = make([]Tuple, 0, len(rows))
	// An open-addressing table of kept rows (index+1; 0 is empty), at most
	// half full, probed linearly and confirmed by comparing renderings.
	var slots []int32
	if distinct {
		slots = make([]int32, 1<<bits.Len(uint(2*len(rows))))
	}
	mask := len(slots) - 1
	for n, row := range rows {
		if len(row) != w {
			panic("nrel: row arity mismatch")
		}
		start, vals := len(rd.buf), len(rd.valEnd)
		for j, v := range row {
			if j > 0 {
				rd.buf = append(rd.buf, rowSep...)
			}
			rd.buf = AppendValue(rd.buf, v)
			rd.valEnd = append(rd.valEnd, int32(len(rd.buf)))
		}
		if len(rd.buf) > math.MaxInt32 {
			panic("nrel: rendering exceeds 2 GiB")
		}
		if n == 31 && len(rows) > 64 {
			// Reserve the rest of the buffer from the first rows' sizes,
			// instead of doubling it a dozen times.
			rd.buf = slices.Grow(rd.buf, len(rd.buf)/32*(len(rows)-32)*9/8)
		}
		if distinct {
			key := rd.buf[start:]
			p := int(maphash.Bytes(rowSeed, key)) & mask
			for slots[p] != 0 && !bytes.Equal(rd.row(slots[p]-1), key) {
				p = (p + 1) & mask
			}
			if slots[p] != 0 {
				rd.buf, rd.valEnd = rd.buf[:start], rd.valEnd[:vals]
				continue
			}
			slots[p] = int32(len(rd.rowEnd)) + 1
		}
		rd.rowEnd = append(rd.rowEnd, int32(len(rd.buf)))
		out.Rows = append(out.Rows, row)
	}
	return out, rd
}

// RenderDistinct returns the distinct rows, as Relation.Distinct does,
// and their Rendering.
func (e Extent) RenderDistinct() (*Relation, *Rendering) {
	return renderRows(e.r.Cols, e.r.Rows, true)
}

// Len returns the number of rows.
func (rd *Rendering) Len() int { return len(rd.rowEnd) }

// rowStart returns where row i starts in the buffer.
func (rd *Rendering) rowStart(i int32) int32 {
	if i == 0 {
		return 0
	}
	return rd.rowEnd[i-1]
}

// row returns row i's rendering.
func (rd *Rendering) row(i int32) []byte { return rd.buf[rd.rowStart(i):rd.rowEnd[i]] }

// byteAt returns byte d of row i's rendering, or -1 past its end: a
// rendering sorts before every longer one it is a prefix of.
func (rd *Rendering) byteAt(i int32, d int) int {
	if p := int(rd.rowStart(i)) + d; p < int(rd.rowEnd[i]) {
		return int(rd.buf[p])
	}
	return -1
}

// order returns the indexes of the rows ranked lo..hi-1 in the /query
// order: ascending by rendering, compared byte-wise, then by index.
func (rd *Rendering) order(lo, hi int) []int32 {
	idx := make([]int32, rd.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	rd.sortRange(idx, lo, hi, 0)
	return idx[lo:hi]
}

// sortRange reorders x, row indexes whose renderings share their first d
// bytes, so that x[lo:hi] holds in order the rows ranked lo..hi-1. It is a
// three-way radix quicksort (Bentley and Sedgewick) on byte d: renderings
// that share long prefixes, as IDs do, are not compared from their first
// byte again and again. Only the parts that overlap the window are
// sorted, so a page costs about one pass over the rows, not a full sort.
func (rd *Rendering) sortRange(x []int32, lo, hi, d int) {
	for lo < hi {
		if len(x) <= 12 {
			slices.SortFunc(x, func(a, b int32) int {
				if c := bytes.Compare(rd.row(a)[d:], rd.row(b)[d:]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			return
		}
		// The median of three bytes at d is the pivot.
		a, b, c := rd.byteAt(x[0], d), rd.byteAt(x[len(x)/2], d), rd.byteAt(x[len(x)-1], d)
		if a > b {
			a, b = b, a
		}
		p := max(a, min(b, c))
		// x[:lt] < p, x[lt:gt] == p, x[gt:] > p.
		lt, gt := 0, len(x)
		for i := 0; i < gt; {
			switch c := rd.byteAt(x[i], d); {
			case c < p:
				x[lt], x[i] = x[i], x[lt]
				lt, i = lt+1, i+1
			case c > p:
				gt--
				x[gt], x[i] = x[i], x[gt]
			default:
				i++
			}
		}
		if lo < lt {
			rd.sortRange(x[:lt], lo, min(hi, lt), d)
		}
		if hi > gt {
			rd.sortRange(x[gt:], max(lo, gt)-gt, hi-gt, d)
		}
		x, lo, hi = x[lt:gt], max(lo, lt)-lt, min(hi, gt)-lt
		if p < 0 {
			// These renderings all end at d: they are equal.
			slices.Sort(x)
			return
		}
		d++
	}
}

// Window returns the cells of the rows ranked offset..end-1 in the /query
// order: ascending by rendering, compared byte-wise. Rows whose renderings
// tie render identically, so the order among them is unobservable. The
// cells are substrings of one string holding the window's renderings.
func (rd *Rendering) Window(offset, end int) [][]string {
	idx := rd.order(offset, end)
	size := 0
	for _, i := range idx {
		size += len(rd.row(i))
	}
	var text strings.Builder
	text.Grow(size)
	for _, i := range idx {
		text.Write(rd.row(i))
	}
	s := text.String()
	w := rd.width
	cells := make([]string, len(idx)*w)
	out := make([][]string, len(idx))
	pos := 0
	for n, i := range idx {
		start := rd.rowStart(i)
		row := cells[n*w : (n+1)*w : (n+1)*w]
		from := pos
		for j := range row {
			to := pos + int(rd.valEnd[int(i)*w+j]-start)
			row[j] = s[from:to]
			from = to + len(rowSep)
		}
		pos += int(rd.rowEnd[i] - start)
		out[n] = row
	}
	return out
}
