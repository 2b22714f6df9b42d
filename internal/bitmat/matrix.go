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
// rows and set-bit counts. No field is sized by the dimensions, so every
// whole-matrix operation costs O(live rows), not O(nRows), and a row
// selection (UnfoldRows, CloneRows) with a sparse mask costs what the
// mask keeps.
type Matrix struct {
	nRows, nCols int
	ids          []uint32      // ascending ids of the non-empty rows
	rows         []*bitvec.Row // rows[i] is row ids[i]; never empty
	counts       []uint32      // counts[i] is rows[i].Count(), read without touching the row
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
			m.counts = append(m.counts, uint32(row.Count()))
			m.count += int64(row.Count())
		}
		return
	}
	i, found := m.find(r)
	switch {
	case found && row == nil:
		m.count -= int64(m.counts[i])
		m.ids = slices.Delete(m.ids, i, i+1)
		m.rows = slices.Delete(m.rows, i, i+1)
		m.counts = slices.Delete(m.counts, i, i+1)
	case found:
		m.count += int64(row.Count()) - int64(m.counts[i])
		m.rows[i], m.counts[i] = row, uint32(row.Count())
	case row != nil:
		m.ids = slices.Insert(m.ids, i, uint32(r))
		m.rows = slices.Insert(m.rows, i, row)
		m.counts = slices.Insert(m.counts, i, uint32(row.Count()))
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
	var i int
	if m.ids[hint] <= t {
		i = gallop(m.ids, hint, t)
	} else {
		i, _ = slices.BinarySearch(m.ids[:hint], t)
	}
	if i < n && m.ids[i] == t {
		return m.rows[i], i
	}
	return nil, i
}

// gallop returns the first slot j >= lo of the ascending ids with
// ids[j] >= t, or len(ids); every slot below lo must hold an id below t.
// It steps 1, 2, 4, ... slots from lo and binary-searches the last step,
// so it costs O(log(j - lo)) and reads no slot below lo.
func gallop(ids []uint32, lo int, t uint32) int {
	hi, step := lo, 1
	for hi < len(ids) && ids[hi] < t {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	j, _ := slices.BinarySearch(ids[lo:min(hi, len(ids))], t)
	return lo + j
}

// Clone returns a deep-enough copy: rows are immutable so sharing them is
// safe; the live-row directory (ids, row pointers and counts) is copied,
// so unfold on the clone, which compacts the directory in place, leaves
// the original untouched.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{
		nRows: m.nRows, nCols: m.nCols, count: m.count,
		ids:    slices.Clone(m.ids),
		rows:   slices.Clone(m.rows),
		counts: slices.Clone(m.counts),
	}
}

// CloneRows is Clone followed by UnfoldRows(mask), but it copies only the
// directory entries of the rows the mask keeps.
func (m *Matrix) CloneRows(mask *bitvec.Bits) *Matrix {
	c := NewMatrix(m.nRows, m.nCols)
	maskBits := mask.Count()
	if k := min(maskBits, len(m.ids)); k > 0 {
		c.ids, c.rows, c.counts = make([]uint32, 0, k), make([]*bitvec.Row, 0, k), make([]uint32, 0, k)
	}
	m.selectRows(mask, c, maskBits*seekDensity < len(m.ids))
	return c
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
// empty leave the directory; a row the mask keeps whole stays as it is,
// so only a partly masked row allocates.
func (m *Matrix) UnfoldCols(mask *bitvec.Bits) {
	w := 0
	var count int64
	for i, row := range m.rows {
		c := m.counts[i]
		kept := row.AndOrNil(mask)
		if kept == nil {
			continue
		}
		if kept != row {
			c = uint32(kept.Count())
		}
		m.ids[w], m.rows[w], m.counts[w] = m.ids[i], kept, c
		count += int64(c)
		w++
	}
	clear(m.rows[w:]) // release the dropped rows to the collector
	m.ids, m.rows, m.counts, m.count = m.ids[:w], m.rows[:w], m.counts[:w], count
}

// UnfoldRows implements unfold(BM, mask, rowDim): drops every row whose
// mask bit is 0.
func (m *Matrix) UnfoldRows(mask *bitvec.Bits) {
	n := len(m.rows)
	m.selectRows(mask, m, mask.Count()*seekDensity < n)
	clear(m.rows[len(m.ids):n]) // release the dropped rows to the collector
}

// seekDensity is the cut-over of a row selection: a mask with fewer set
// bits than 1/seekDensity of the live rows is walked bit by bit, each bit
// galloping to its slot; a denser one is tested once per live row.
// BenchmarkUnfoldRows and BenchmarkCloneRows sweep the mask density on
// both paths. Masked loads take both sides: on the benchmark's
// selective-lookup workload 59 % of the masked clones seek (about 65 mask
// bits over 5 100 live rows each), and there a scan-only build read 5 %
// slower (19 of 20 alternating pairs over two seeds) and a seek-only one
// 2 % slower (8 of 10 pairs), on a two-core box.
const seekDensity = 16

// selectRows appends to dst's directory, in ascending order, the live rows
// of m whose mask bit is set, and sets dst's count; seek chooses the walk
// over the mask's set bits. dst is either a new matrix of m's shape or m
// itself: appending to m's own slices from slot 0 compacts them in place,
// since the write slot never passes the read slot, and the read side
// reads no slot below the one it is at.
func (m *Matrix) selectRows(mask *bitvec.Bits, dst *Matrix, seek bool) {
	ids, rows, counts := m.ids, m.rows, m.counts
	if dst == m {
		dst.ids, dst.rows, dst.counts = ids[:0], rows[:0], counts[:0]
	}
	var count int64
	for i := 0; i < len(ids); i++ {
		if seek {
			// Leapfrog: the mask skips to the slot's row, the slot
			// gallops to the mask's next set bit; a miss retries from
			// the slot the gallop stopped at.
			t := mask.NextSet(int(ids[i]))
			if t < 0 {
				break
			}
			if int(ids[i]) != t {
				if i = gallop(ids, i+1, uint32(t)); i == len(ids) || int(ids[i]) != t {
					i--
					continue
				}
			}
		} else if !mask.Test(int(ids[i])) {
			continue
		}
		dst.ids = append(dst.ids, ids[i])
		dst.rows = append(dst.rows, rows[i])
		dst.counts = append(dst.counts, counts[i])
		count += int64(counts[i])
	}
	dst.count = count
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
