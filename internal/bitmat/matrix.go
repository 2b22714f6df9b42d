// Package bitmat implements the BitMat index of Section 4 of the paper: the
// RDF graph as a 3D bitcube of dimensions Vs x Vp x Vo, sliced into 2D
// bit matrices. The S and O dimensions both span the one subject/object
// ID space of rdf.Dictionary. Four families exist: S-O and O-S BitMats per
// predicate, P-S BitMats per object, and P-O BitMats per subject
// (2|Vp| + |Vs| + |Vo| in total). Rows are compressed with the hybrid run-length/sparse codec of
// internal/bitvec, and the fold and unfold primitives work directly on the
// compressed rows.
package bitmat

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
)

// Matrix is a 2D bit matrix with compressed rows. Rows and columns are
// 0-indexed here; dimension IDs (which start at 1) are mapped by the caller.
// A Matrix is the query-time representation of the triples matching one
// triple pattern; unfold mutates it in place.
//
// Like the paper's condensed BitMat, it stores only its non-empty rows: an
// ascending directory of live row ids and, in parallel, their compressed
// rows. No field is sized by the dimensions, so every whole-matrix
// operation costs O(live rows), not O(nRows).
type Matrix struct {
	nRows, nCols int
	ids          []uint32      // ascending ids of the non-empty rows
	rows         []*bitvec.Row // rows[i] is row ids[i]; never empty
	count        int64
}

// NewMatrix returns an empty matrix of the given shape.
func NewMatrix(nRows, nCols int) *Matrix {
	if nRows < 0 || nCols < 0 {
		panic("bitmat: negative dimension")
	}
	return &Matrix{nRows: nRows, nCols: nCols}
}

// NRows reports the number of rows.
func (m *Matrix) NRows() int { return m.nRows }

// NCols reports the number of columns.
func (m *Matrix) NCols() int { return m.nCols }

// Count reports the number of set bits (triples).
func (m *Matrix) Count() int64 { return m.count }

// Empty reports whether no bit is set.
func (m *Matrix) Empty() bool { return m.count == 0 }

// LiveRows reports the number of non-empty rows.
func (m *Matrix) LiveRows() int { return len(m.ids) }

// find returns the directory slot of row r and whether r is live; when it
// is not, the slot is where r would be inserted.
func (m *Matrix) find(r int) (int, bool) {
	return slices.BinarySearch(m.ids, uint32(r))
}

// SetRow installs a compressed row at index r, replacing any previous row;
// a nil or empty row clears it. The row length must equal NCols. Rows set
// in ascending order, as every loader does, append in O(1).
func (m *Matrix) SetRow(r int, row *bitvec.Row) {
	if r < 0 || r >= m.nRows {
		panic(fmt.Sprintf("bitmat: row %d out of range [0, %d)", r, m.nRows))
	}
	if row != nil && row.Len() != m.nCols {
		panic(fmt.Sprintf("bitmat: row length %d != %d cols", row.Len(), m.nCols))
	}
	if row != nil && row.Count() == 0 {
		row = nil
	}
	if n := len(m.ids); n == 0 || m.ids[n-1] < uint32(r) {
		if row != nil {
			m.ids = append(m.ids, uint32(r))
			m.rows = append(m.rows, row)
			m.count += int64(row.Count())
		}
		return
	}
	i, found := m.find(r)
	switch {
	case found && row == nil:
		m.count -= int64(m.rows[i].Count())
		m.ids = slices.Delete(m.ids, i, i+1)
		m.rows = slices.Delete(m.rows, i, i+1)
	case found:
		m.count += int64(row.Count() - m.rows[i].Count())
		m.rows[i] = row
	case row != nil:
		m.ids = slices.Insert(m.ids, i, uint32(r))
		m.rows = slices.Insert(m.rows, i, row)
		m.count += int64(row.Count())
	}
}

// Row returns the compressed row at index r, or nil if it is empty.
func (m *Matrix) Row(r int) *bitvec.Row {
	if r < 0 || r >= m.nRows {
		return nil
	}
	if i, found := m.find(r); found {
		return m.rows[i]
	}
	return nil
}

// Seek is Row for a caller that probes many rows in mostly ascending
// order, such as the multi-way join's bound-row probes. It returns row
// r, or nil if it is empty, and the hint for the next call.
//
// A hint is a slot of the live-row directory: where the previous Seek
// ended. From a hint at or below r's slot, Seek gallops forward (steps 1,
// 2, 4, ... slots) and binary-searches the last step, so an ascending
// sequence of probes costs O(log distance) each instead of O(log live
// rows); a target below the hint is binary-searched below it. Any hint is
// correct, however stale or out of range: it only chooses where the
// search starts, and each side of it is compared with r before being
// trusted. Start a sequence with hint 0.
func (m *Matrix) Seek(r, hint int) (*bitvec.Row, int) {
	n := len(m.ids)
	if r < 0 || r >= m.nRows || n == 0 {
		return nil, hint
	}
	hint = min(max(hint, 0), n-1)
	t := uint32(r)
	lo, hi := 0, hint
	if m.ids[hint] <= t {
		// Gallop: ids[lo] <= t, and on exit ids[hi] > t or hi == n.
		lo = hint
		step := 1
		for lo+step < n && m.ids[lo+step] <= t {
			lo += step
			step <<= 1
		}
		hi = min(lo+step, n)
	}
	i, found := slices.BinarySearch(m.ids[lo:hi], t)
	i += lo
	if found {
		return m.rows[i], i
	}
	return nil, i
}

// Clone returns a deep-enough copy: rows are immutable so sharing them is
// safe; the live-row directory (ids and row pointers) is copied, so unfold
// on the clone, which compacts the directory in place, leaves the original
// untouched.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{
		nRows: m.nRows, nCols: m.nCols, count: m.count,
		ids:  slices.Clone(m.ids),
		rows: slices.Clone(m.rows),
	}
}

// FoldCols implements fold(BM, colDim): the projection of the column
// dimension, i.e. a bit array over columns with a 1 wherever any row has a
// set bit. It is a bitwise OR over the compressed rows, into a Bits that
// stores only the columns between the first and the last set bit.
func (m *Matrix) FoldCols() *bitvec.Bits {
	if len(m.rows) == 0 {
		return bitvec.NewBitsSpan(m.nCols, 0, 0)
	}
	lo, hi := m.rows[0].Span()
	for _, row := range m.rows[1:] {
		rlo, rhi := row.Span()
		lo, hi = min(lo, rlo), max(hi, rhi)
	}
	acc := bitvec.NewBitsSpan(m.nCols, lo, hi)
	for _, row := range m.rows {
		row.OrInto(acc)
	}
	return acc
}

// FoldRows implements fold(BM, rowDim): a bit array over rows with a 1 for
// every non-empty row, storing only the rows between the first and the
// last live one.
func (m *Matrix) FoldRows() *bitvec.Bits {
	if len(m.ids) == 0 {
		return bitvec.NewBitsSpan(m.nRows, 0, 0)
	}
	acc := bitvec.NewBitsSpan(m.nRows, int(m.ids[0]), int(m.ids[len(m.ids)-1])+1)
	for _, r := range m.ids {
		acc.Set(int(r))
	}
	return acc
}

// UnfoldCols implements unfold(BM, mask, colDim): clears every column whose
// mask bit is 0, by ANDing each compressed row with the mask. Rows left
// empty leave the directory.
func (m *Matrix) UnfoldCols(mask *bitvec.Bits) {
	m.compact(func(_ uint32, row *bitvec.Row) *bitvec.Row {
		return row.And(mask)
	})
}

// UnfoldRows implements unfold(BM, mask, rowDim): drops every row whose
// mask bit is 0.
func (m *Matrix) UnfoldRows(mask *bitvec.Bits) {
	m.compact(func(r uint32, row *bitvec.Row) *bitvec.Row {
		if mask.Test(int(r)) {
			return row
		}
		return nil
	})
}

// compact replaces every live row by keep's result and drops the rows
// keep empties, compacting the directory in place.
func (m *Matrix) compact(keep func(r uint32, row *bitvec.Row) *bitvec.Row) {
	w := 0
	var count int64
	for i, row := range m.rows {
		row = keep(m.ids[i], row)
		if row == nil || row.Count() == 0 {
			continue
		}
		m.ids[w], m.rows[w] = m.ids[i], row
		count += int64(row.Count())
		w++
	}
	clear(m.rows[w:]) // release the dropped rows to the collector
	m.ids, m.rows, m.count = m.ids[:w], m.rows[:w], count
}

// Fold projects the requested axis: Rows or Cols.
func (m *Matrix) Fold(axis Axis) *bitvec.Bits {
	if axis == Rows {
		return m.FoldRows()
	}
	return m.FoldCols()
}

// Unfold masks the requested axis: Rows or Cols.
func (m *Matrix) Unfold(mask *bitvec.Bits, axis Axis) {
	if axis == Rows {
		m.UnfoldRows(mask)
	} else {
		m.UnfoldCols(mask)
	}
}

// Axis names one of the two dimensions of a Matrix.
type Axis uint8

const (
	// Rows is the row dimension of a Matrix.
	Rows Axis = iota
	// Cols is the column dimension.
	Cols
)

func (a Axis) String() string {
	if a == Rows {
		return "rows"
	}
	return "cols"
}

// Other returns the opposite axis.
func (a Axis) Other() Axis {
	if a == Rows {
		return Cols
	}
	return Rows
}

// ForEachRow calls fn for every non-empty row in ascending row order.
func (m *Matrix) ForEachRow(fn func(r int, row *bitvec.Row) bool) {
	for i, row := range m.rows {
		if !fn(int(m.ids[i]), row) {
			return
		}
	}
}

// ForEachRowRange calls fn for every non-empty row r with lo <= r < hi, in
// ascending row order, seeking to lo instead of walking the rows below it.
func (m *Matrix) ForEachRowRange(lo, hi int, fn func(r int, row *bitvec.Row) bool) {
	i := 0
	if lo > 0 {
		i, _ = m.find(lo)
	}
	for ; i < len(m.ids) && int(m.ids[i]) < hi; i++ {
		if !fn(int(m.ids[i]), m.rows[i]) {
			return
		}
	}
}

// ForEach calls fn for every set bit (r, c) in row-major order.
func (m *Matrix) ForEach(fn func(r, c int) bool) {
	stop := false
	m.ForEachRow(func(r int, row *bitvec.Row) bool {
		row.ForEach(func(c int) bool {
			if !fn(r, c) {
				stop = true
			}
			return !stop
		})
		return !stop
	})
}

// Transpose returns a new matrix with rows and columns swapped. It sorts
// the set bits by column rather than bucketing them in a table over the
// column dimension, so it costs O(set bits) whatever the shape.
func (m *Matrix) Transpose() *Matrix {
	keys := make([]uint64, 0, m.count)
	m.ForEach(func(r, c int) bool {
		keys = append(keys, uint64(c)<<32|uint64(r))
		return true
	})
	slices.Sort(keys)
	t := NewMatrix(m.nCols, m.nRows)
	for i := 0; i < len(keys); {
		c := keys[i] >> 32
		j := i + 1
		for j < len(keys) && keys[j]>>32 == c {
			j++
		}
		pos := make([]uint32, j-i)
		for k := range pos {
			pos[k] = uint32(keys[i+k])
		}
		// Sorting (c, r) keys leaves each column's rows strictly ascending,
		// and the columns arrive ascending, so SetRow appends.
		t.SetRow(int(c), bitvec.RowFromSortedPositions(m.nRows, pos))
		i = j
	}
	return t
}

// Equal reports whether two matrices have the same shape and set bits.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.nRows != other.nRows || m.nCols != other.nCols || m.count != other.count ||
		!slices.Equal(m.ids, other.ids) {
		return false
	}
	for i, row := range m.rows {
		if !row.Equal(other.rows[i]) {
			return false
		}
	}
	return true
}

// WireSize returns the number of 4-byte integers the matrix occupies in the
// hybrid encoding, plus per-row markers, matching the paper's accounting.
func (m *Matrix) WireSize() int64 {
	var total int64
	for _, row := range m.rows {
		total += int64(row.WireSize())
	}
	return total
}

// RLEWireSize returns the size a pure run-length encoding would need, used
// by the hybrid-compression ablation (Section 4 claims ~40% savings).
func (m *Matrix) RLEWireSize() int64 {
	var total int64
	for _, row := range m.rows {
		total += int64(row.RLESize())
	}
	return total
}

// matrixFromSortedPairs builds a matrix from (row, col) pairs sorted by row
// then column, with rows/cols given as 1-based IDs.
func matrixFromSortedPairs(nRows, nCols int, pairs []Pair) *Matrix {
	return matrixFromSortedPairsFiltered(nRows, nCols, pairs, nil, nil)
}

// matrixFromSortedPairsFiltered additionally drops pairs whose (0-based)
// row or column bit is clear in the respective mask; nil masks keep all.
func matrixFromSortedPairsFiltered(nRows, nCols int, pairs []Pair, rowMask, colMask *bitvec.Bits) *Matrix {
	m := NewMatrix(nRows, nCols)
	i := 0
	for i < len(pairs) {
		j := i
		for j < len(pairs) && pairs[j].A == pairs[i].A {
			j++
		}
		if rowMask != nil && !rowMask.Test(int(pairs[i].A-1)) {
			i = j
			continue
		}
		pos := make([]uint32, 0, j-i)
		for k := i; k < j; k++ {
			if colMask == nil || colMask.Test(int(pairs[k].B-1)) {
				pos = append(pos, uint32(pairs[k].B-1))
			}
		}
		if len(pos) > 0 {
			// Pairs are sorted by (A,B) and duplicate-free, so the column
			// positions of one row arrive strictly ascending.
			m.SetRow(int(pairs[i].A-1), bitvec.RowFromSortedPositions(nCols, pos))
		}
		i = j
	}
	return m
}

// Pair is an ordered (A, B) coordinate pair of 1-based IDs.
type Pair struct {
	A, B uint32
}
