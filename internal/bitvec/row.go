package bitvec

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Encoding identifies the physical codec of a compressed Row.
type Encoding uint8

const (
	// EncEmpty is a row with no set bits; it stores nothing.
	EncEmpty Encoding = iota
	// EncRLE stores alternating run lengths, prefixed by the value of the
	// first run ("[1] 3 2 4 1" in the paper's notation).
	EncRLE
	// EncSparse stores the positions of the set bits. The paper's hybrid
	// scheme switches to this form whenever the number of set bits is
	// smaller than the number of run-length integers, which saves ~40% of
	// index space versus RLE alone.
	EncSparse
)

func (e Encoding) String() string {
	switch e {
	case EncEmpty:
		return "empty"
	case EncRLE:
		return "rle"
	case EncSparse:
		return "sparse"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// Row is one compressed row of a BitMat: a fixed-length bitvector stored in
// whichever of the hybrid encodings is smaller. Rows are immutable; all
// operations return new rows. The zero value is an empty row of length 0.
type Row struct {
	enc   Encoding
	n     int      // logical bit length
	first bool     // EncRLE: value of the first run
	runs  []uint32 // EncRLE: run lengths, alternating, all > 0, summing to n
	pos   []uint32 // EncSparse: ascending set-bit positions
	count int      // cached number of set bits
}

// EmptyRow returns an empty (all zero) row of length n.
func EmptyRow(n int) *Row { return &Row{enc: EncEmpty, n: n} }

// Len reports the logical bit length of the row.
func (r *Row) Len() int { return r.n }

// Count reports the number of set bits.
func (r *Row) Count() int { return r.count }

// Encoding reports which physical codec the row uses.
func (r *Row) Encoding() Encoding { return r.enc }

// Empty reports whether the row has no set bits.
func (r *Row) Empty() bool { return r.count == 0 }

// WireSize returns the number of 4-byte integers the row occupies in the
// index, matching the paper's accounting for the hybrid-compression claim.
func (r *Row) WireSize() int {
	switch r.enc {
	case EncRLE:
		return 1 + len(r.runs) // first-run marker + run lengths
	case EncSparse:
		return 1 + len(r.pos) // marker + positions
	default:
		return 1
	}
}

// RLESize returns the number of integers a pure-RLE encoding of this row
// would need, used by the hybrid-vs-RLE ablation.
func (r *Row) RLESize() int {
	if r.count == 0 {
		if r.n == 0 {
			return 1
		}
		return 2 // "[0] n"
	}
	nruns := 0
	lastEnd := 0 // one past the end of the previous set run
	r.Runs(func(start, length int) bool {
		if start > lastEnd || (lastEnd == 0 && start > 0) {
			nruns++ // zero run before this set run
		}
		nruns++ // the set run itself
		lastEnd = start + length
		return true
	})
	if lastEnd < r.n {
		nruns++ // trailing zero run
	}
	return 1 + nruns
}

// RowFromBits compresses an uncompressed bit array into the smaller of the
// two codecs (the hybrid rule of Section 4).
func RowFromBits(b *Bits) *Row {
	n := b.Len()
	c := b.Count()
	if c == 0 {
		return EmptyRow(n)
	}
	// Build the RLE form while counting runs; fall back to sparse when it
	// has fewer integers.
	var runs []uint32
	firstVal := b.Test(0)
	cur := firstVal
	runLen := uint32(0)
	for i := 0; i < n; i++ {
		v := b.Test(i)
		if v == cur {
			runLen++
			continue
		}
		runs = append(runs, runLen)
		cur = v
		runLen = 1
	}
	runs = append(runs, runLen)
	if c < len(runs) {
		return &Row{enc: EncSparse, n: n, pos: b.Positions(), count: c}
	}
	return &Row{enc: EncRLE, n: n, first: firstVal, runs: runs, count: c}
}

// RowFromSortedPositions builds a row of length n from strictly ascending,
// duplicate-free set-bit positions, taking ownership of pos: no copy, sort
// or dedup, because pair tables and row-major matrix walks already produce
// positions in order. Unsorted or duplicated input panics, as it would
// silently corrupt the row.
func RowFromSortedPositions(n int, pos []uint32) *Row {
	if len(pos) == 0 {
		return EmptyRow(n)
	}
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			panic(fmt.Sprintf("bitvec: positions not strictly ascending at %d: %d <= %d", i, pos[i], pos[i-1]))
		}
	}
	if int(pos[len(pos)-1]) >= n {
		panic(fmt.Sprintf("bitvec: position %d out of range %d", pos[len(pos)-1], n))
	}
	r := &Row{enc: EncSparse, n: n, pos: pos, count: len(pos)}
	return r.normalize()
}

// normalize re-applies the hybrid rule: pick whichever codec is smaller for
// the current contents. Rows produced by set operations call this so that
// the stored form always honours the paper's hybrid invariant.
func (r *Row) normalize() *Row {
	if r.count == 0 {
		return EmptyRow(r.n)
	}
	switch r.enc {
	case EncSparse:
		// Count the runs the RLE form would need.
		nruns := 0
		if r.pos[0] > 0 {
			nruns++
		}
		nruns++ // first set run
		for i := 1; i < len(r.pos); i++ {
			if r.pos[i] != r.pos[i-1]+1 {
				nruns += 2
			}
		}
		if int(r.pos[len(r.pos)-1]) < r.n-1 {
			nruns++
		}
		if nruns <= r.count {
			return r.toRLE()
		}
		return r
	case EncRLE:
		if r.count < len(r.runs) {
			return r.toSparse()
		}
		return r
	}
	return r
}

func (r *Row) toRLE() *Row {
	out := &Row{enc: EncRLE, n: r.n, count: r.count}
	var runs []uint32
	first := false
	cursor := uint32(0)
	if r.pos[0] > 0 {
		runs = append(runs, r.pos[0])
	} else {
		first = true
	}
	i := 0
	for i < len(r.pos) {
		j := i
		for j+1 < len(r.pos) && r.pos[j+1] == r.pos[j]+1 {
			j++
		}
		runs = append(runs, uint32(j-i+1))
		cursor = r.pos[j] + 1
		if j+1 < len(r.pos) {
			runs = append(runs, r.pos[j+1]-cursor)
		}
		i = j + 1
	}
	if int(cursor) < r.n {
		runs = append(runs, uint32(r.n)-cursor)
	}
	out.first = first
	out.runs = runs
	return out
}

func (r *Row) toSparse() *Row {
	pos := make([]uint32, 0, r.count)
	r.ForEach(func(i int) bool {
		pos = append(pos, uint32(i))
		return true
	})
	return &Row{enc: EncSparse, n: r.n, pos: pos, count: len(pos)}
}

// Test reports whether bit i is set.
func (r *Row) Test(i int) bool {
	if i < 0 || i >= r.n {
		return false
	}
	switch r.enc {
	case EncEmpty:
		return false
	case EncSparse:
		k := sort.Search(len(r.pos), func(j int) bool { return r.pos[j] >= uint32(i) })
		return k < len(r.pos) && r.pos[k] == uint32(i)
	case EncRLE:
		v := r.first
		off := uint32(i)
		for _, rl := range r.runs {
			if off < rl {
				return v
			}
			off -= rl
			v = !v
		}
		return false
	}
	return false
}

// ForEach calls fn with the index of every set bit in ascending order,
// walking the compressed form directly. Iteration stops if fn returns false.
func (r *Row) ForEach(fn func(i int) bool) {
	switch r.enc {
	case EncEmpty:
	case EncSparse:
		for _, p := range r.pos {
			if !fn(int(p)) {
				return
			}
		}
	case EncRLE:
		v := r.first
		at := 0
		for _, rl := range r.runs {
			if v {
				for i := at; i < at+int(rl); i++ {
					if !fn(i) {
						return
					}
				}
			}
			at += int(rl)
			v = !v
		}
	}
}

// ForEachRange calls fn with the index of every set bit in [lo, hi) in
// ascending order, seeking past the prefix instead of decoding it: a
// binary search for sparse rows, run skipping for RLE rows. Iteration
// stops if fn returns false. It is the closure form, for cold callers, of
// the range scan the multi-way join runs inline over Raw.
func (r *Row) ForEachRange(lo, hi int, fn func(i int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > r.n {
		hi = r.n
	}
	if lo >= hi {
		return
	}
	switch r.enc {
	case EncEmpty:
	case EncSparse:
		k := sort.Search(len(r.pos), func(j int) bool { return r.pos[j] >= uint32(lo) })
		for _, p := range r.pos[k:] {
			if int(p) >= hi {
				return
			}
			if !fn(int(p)) {
				return
			}
		}
	case EncRLE:
		v := r.first
		at := 0
		for _, rl := range r.runs {
			next := at + int(rl)
			if v && next > lo {
				start := at
				if start < lo {
					start = lo
				}
				for i := start; i < next; i++ {
					if i >= hi {
						return
					}
					if !fn(i) {
						return
					}
				}
			}
			at = next
			if at >= hi {
				return
			}
			v = !v
		}
	}
}

// Raw exposes the compressed form for loops that cannot afford a closure
// call per set bit, such as the multi-way join. A sparse row returns its
// ascending set-bit positions in pos and nil runs; an RLE row returns nil
// pos and its run lengths, alternating between set and clear and starting
// with a run whose value is first, all non-zero and summing to Len(); an
// empty row returns nil runs and no positions. The slices are the row's
// own storage: the caller reads them and never writes.
func (r *Row) Raw() (pos, runs []uint32, first bool) {
	return r.pos, r.runs, r.first
}

// Runs calls fn with every maximal run [start, start+length) of set bits in
// ascending order. Iteration stops if fn returns false.
func (r *Row) Runs(fn func(start, length int) bool) {
	switch r.enc {
	case EncEmpty:
	case EncRLE:
		v := r.first
		at := 0
		for _, rl := range r.runs {
			if v && rl > 0 {
				if !fn(at, int(rl)) {
					return
				}
			}
			at += int(rl)
			v = !v
		}
	case EncSparse:
		i := 0
		for i < len(r.pos) {
			j := i
			for j+1 < len(r.pos) && r.pos[j+1] == r.pos[j]+1 {
				j++
			}
			if !fn(int(r.pos[i]), j-i+1) {
				return
			}
			i = j + 1
		}
	}
}

// Span returns the range [lo, hi) from the row's first set bit to one past
// its last; lo == hi when the row is empty.
func (r *Row) Span() (lo, hi int) {
	switch r.enc {
	case EncSparse:
		return int(r.pos[0]), int(r.pos[len(r.pos)-1]) + 1
	case EncRLE:
		// Runs alternate, starting with value first, and are all non-empty:
		// a leading clear run ends at the first set bit, and a trailing
		// clear run starts past the last one.
		lo, hi = 0, r.n
		if !r.first {
			lo = int(r.runs[0])
		}
		if last := len(r.runs) - 1; r.first != (last%2 == 0) {
			hi -= int(r.runs[last])
		}
		return lo, hi
	}
	return 0, 0
}

// OrInto sets in dst every bit set in r. dst must be at least r.Len() long
// and store the words of r's Span. This is the inner step of the fold
// operation.
func (r *Row) OrInto(dst *Bits) {
	if dst.Len() < r.n {
		panic(fmt.Sprintf("bitvec: OrInto destination too short: %d < %d", dst.Len(), r.n))
	}
	switch r.enc {
	case EncEmpty:
	case EncSparse:
		for _, p := range r.pos {
			dst.Set(int(p))
		}
	case EncRLE:
		r.Runs(func(start, length int) bool {
			setRange(dst, start, length)
			return true
		})
	}
}

func setRange(dst *Bits, start, length int) {
	end := start + length
	for i := start; i < end; {
		wi := i / wordBits
		bit := uint(i) % wordBits
		span := wordBits - int(bit)
		if span > end-i {
			span = end - i
		}
		var mask uint64
		if span == wordBits {
			mask = ^uint64(0)
		} else {
			mask = ((1 << uint(span)) - 1) << bit
		}
		dst.words[wi-dst.off] |= mask
		i += span
	}
}

// And returns a new row containing r AND mask, re-encoded under the hybrid
// rule. This is the inner step of the unfold operation: bits of r whose mask
// bit is 0 are cleared. The mask may be shorter than the row; missing mask
// bits are treated as 0.
func (r *Row) And(mask *Bits) *Row {
	switch r.enc {
	case EncEmpty:
		return r
	case EncSparse:
		out := make([]uint32, 0, len(r.pos))
		for _, p := range r.pos {
			if mask.Test(int(p)) {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			return EmptyRow(r.n)
		}
		res := &Row{enc: EncSparse, n: r.n, pos: out, count: len(out)}
		return res.normalize()
	case EncRLE:
		// Walk set runs and intersect each with the mask words, gathering
		// surviving positions; then re-encode hybrid.
		var out []uint32
		lo, hi := mask.off*wordBits, min(mask.end()*wordBits, mask.n)
		r.Runs(func(start, length int) bool {
			end := min(start+length, hi)
			for i := max(start, lo); i < end; {
				wi := i / wordBits
				bit := uint(i) % wordBits
				span := wordBits - int(bit)
				if span > end-i {
					span = end - i
				}
				w := mask.word(wi) >> bit
				if span < wordBits {
					w &= (1 << uint(span)) - 1
				}
				for w != 0 {
					tz := bits.TrailingZeros64(w)
					out = append(out, uint32(i+tz))
					w &= w - 1
				}
				i += span
			}
			return true
		})
		if len(out) == 0 {
			return EmptyRow(r.n)
		}
		res := &Row{enc: EncSparse, n: r.n, pos: out, count: len(out)}
		return res.normalize()
	}
	return r
}

// Bits decompresses the row into a plain bit array.
func (r *Row) Bits() *Bits {
	b := NewBits(r.n)
	r.OrInto(b)
	return b
}

// Equal reports whether two rows have the same length and set bits,
// regardless of encoding.
func (r *Row) Equal(other *Row) bool {
	if r.n != other.n || r.count != other.count {
		return false
	}
	eq := true
	pos := make([]uint32, 0, r.count)
	r.ForEach(func(i int) bool { pos = append(pos, uint32(i)); return true })
	k := 0
	other.ForEach(func(i int) bool {
		if k >= len(pos) || pos[k] != uint32(i) {
			eq = false
			return false
		}
		k++
		return true
	})
	return eq && k == len(pos)
}

// String renders the row in the paper's notation: "[1] 3 2 4 1" for RLE,
// "3 6" for sparse position lists.
func (r *Row) String() string {
	switch r.enc {
	case EncEmpty:
		return fmt.Sprintf("[0] %d", r.n)
	case EncRLE:
		var sb strings.Builder
		if r.first {
			sb.WriteString("[1]")
		} else {
			sb.WriteString("[0]")
		}
		for _, rl := range r.runs {
			fmt.Fprintf(&sb, " %d", rl)
		}
		return sb.String()
	case EncSparse:
		parts := make([]string, len(r.pos))
		for i, p := range r.pos {
			parts[i] = fmt.Sprint(p)
		}
		return strings.Join(parts, " ")
	}
	return "?"
}
