// Package bitvec provides the bit-level substrate of the LBR index: plain
// bit arrays and two compressed row codecs (run-length and sparse position
// lists) unified behind a hybrid Row type. The fold and unfold primitives of
// the BitMat index (Section 4 of the paper) are built from the operations
// here: fold is a bitwise OR of compressed rows into a Bits accumulator, and
// unfold is an AND of each compressed row against a Bits mask. Both operate
// on the compressed representation without materializing per-bit IDs.
package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Bits is an uncompressed fixed-length bit array. It stores a window of
// its words, from word off on, and every bit outside the window is clear.
// NewBits stores every word; NewBitsSpan stores only the words a known
// range of bits spans, so a fold over IDs that cluster costs what the
// cluster spans, not what the axis does. The zero value is an empty array
// of length 0; use NewBits to allocate one of a given length.
type Bits struct {
	words []uint64 // words[k] holds bits [(off+k)*64, (off+k+1)*64)
	off   int      // index of the first stored word
	n     int
}

// NewBits returns a Bits of length n with all bits clear.
func NewBits(n int) *Bits {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Bits{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewBitsSpan returns a Bits of length n with all bits clear that stores
// only the words spanning bits [lo, hi), where 0 <= lo <= hi <= n. Set
// may touch only bits in that range; Or widens the window as needed.
func NewBitsSpan(n, lo, hi int) *Bits {
	if lo < 0 || lo > hi || hi > n {
		panic(fmt.Sprintf("bitvec: span [%d,%d) outside length %d", lo, hi, n))
	}
	if lo == hi {
		return &Bits{n: n}
	}
	off := lo / wordBits
	return &Bits{words: make([]uint64, (hi+wordBits-1)/wordBits-off), off: off, n: n}
}

// NewBitsSet returns a Bits of length n with all bits set.
func NewBitsSet(n int) *Bits {
	b := NewBits(n)
	b.SetAll()
	return b
}

// Len reports the number of bits in b.
func (b *Bits) Len() int { return b.n }

// word returns word gi of the whole array: 0 outside the stored window.
func (b *Bits) word(gi int) uint64 {
	if k := uint(gi - b.off); k < uint(len(b.words)) {
		return b.words[k]
	}
	return 0
}

// end returns the index one past the last stored word.
func (b *Bits) end() int { return b.off + len(b.words) }

// window returns the range [lo, hi) of bits the stored words cover, cut
// at the length: every set bit lies in it.
func (b *Bits) window() (lo, hi int) {
	return b.off * wordBits, min(b.end()*wordBits, b.n)
}

// Set sets bit i to 1. The bit must lie in the stored window.
func (b *Bits) Set(i int) {
	b.words[i/wordBits-b.off] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (b *Bits) Clear(i int) {
	if k := i/wordBits - b.off; k >= 0 && k < len(b.words) {
		b.words[k] &^= 1 << (uint(i) % wordBits)
	}
}

// Test reports whether bit i is set. Out-of-range indexes report false so
// that masks shorter than a row behave like zero-extended masks.
func (b *Bits) Test(i int) bool {
	if uint(i) >= uint(b.n) {
		return false
	}
	return b.word(i/wordBits)&(1<<(uint(i)%wordBits)) != 0
}

// SetAll sets every bit, storing every word.
func (b *Bits) SetAll() {
	b.widen(0, (b.n+wordBits-1)/wordBits)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll clears every bit.
func (b *Bits) ClearAll() {
	clear(b.words)
}

// widen grows the stored window to cover words [lo, hi).
func (b *Bits) widen(lo, hi int) {
	if lo >= hi || (lo >= b.off && hi <= b.end()) {
		return
	}
	if len(b.words) == 0 {
		b.words, b.off = make([]uint64, hi-lo), lo
		return
	}
	lo, hi = min(lo, b.off), max(hi, b.end())
	words := make([]uint64, hi-lo)
	copy(words[b.off-lo:], b.words)
	b.words, b.off = words, lo
}

// trim clears the unused high bits of the last word so that Count and
// equality work on whole words.
func (b *Bits) trim() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 && b.end() == (b.n+wordBits-1)/wordBits {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns the number of bits set in both b and other, treating
// bits outside either's stored window as 0, without allocating: the
// population of b AND other, for vectors of any lengths.
func (b *Bits) AndCount(other *Bits) int {
	lo, hi := max(b.off, other.off), min(b.end(), other.end())
	c := 0
	for gi := lo; gi < hi; gi++ {
		c += bits.OnesCount64(b.words[gi-b.off] & other.words[gi-other.off])
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And replaces b with b AND other. The two must have the same length.
func (b *Bits) And(other *Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitvec: And length mismatch %d != %d", b.n, other.n))
	}
	b.AndCompat(other)
}

// Or replaces b with b OR other. The two must have the same length.
func (b *Bits) Or(other *Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitvec: Or length mismatch %d != %d", b.n, other.n))
	}
	b.widen(other.off, other.end())
	for k, w := range other.words {
		b.words[other.off+k-b.off] |= w
	}
}

// AndCompat replaces b with b AND other, treating bits beyond other's
// length, or outside its stored window, as 0, so vectors of different
// lengths intersect without a length check.
func (b *Bits) AndCompat(other *Bits) {
	for k := range b.words {
		b.words[k] &= other.word(b.off + k)
	}
}

// AndNot clears in b every bit set in other.
func (b *Bits) AndNot(other *Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitvec: AndNot length mismatch %d != %d", b.n, other.n))
	}
	for k := range b.words {
		b.words[k] &^= other.word(b.off + k)
	}
}

// Equal reports whether b and other have identical length and contents.
func (b *Bits) Equal(other *Bits) bool {
	if b.n != other.n {
		return false
	}
	for gi := min(b.off, other.off); gi < max(b.end(), other.end()); gi++ {
		if b.word(gi) != other.word(gi) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of b, with the same stored window.
func (b *Bits) Clone() *Bits {
	return &Bits{words: slices.Clone(b.words), off: b.off, n: b.n}
}

// ForEach calls fn with the index of every set bit in ascending order. If fn
// returns false the iteration stops early.
func (b *Bits) ForEach(fn func(i int) bool) {
	for k, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn((b.off+k)*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (b *Bits) NextSet(i int) int {
	i = max(i, b.off*wordBits)
	if i >= b.n {
		return -1
	}
	gi := i / wordBits
	if w := b.word(gi) >> (uint(i) % wordBits); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for gi++; gi < b.end(); gi++ {
		if w := b.word(gi); w != 0 {
			return gi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Positions returns the indexes of all set bits in ascending order.
func (b *Bits) Positions() []uint32 {
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, uint32(i))
		return true
	})
	return out
}

// String renders the bits as a 0/1 string, for tests and debugging.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// FromString parses a 0/1 string into a Bits. Characters other than '0' and
// '1' are rejected.
func FromString(s string) (*Bits, error) {
	b := NewBits(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			b.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at %d", s[i], i)
		}
	}
	return b, nil
}
