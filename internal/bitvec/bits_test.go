package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsBasic(t *testing.T) {
	b := NewBits(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Any() {
		t.Fatal("new Bits should be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if got := b.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Test(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Test(1) || b.Test(128) {
		t.Error("unexpected set bit")
	}
	b.Clear(63)
	if b.Test(63) {
		t.Error("bit 63 should be cleared")
	}
	if b.Count() != 3 {
		t.Errorf("Count after Clear = %d, want 3", b.Count())
	}
}

func TestBitsOutOfRangeTest(t *testing.T) {
	b := NewBits(10)
	b.Set(3)
	if b.Test(-1) || b.Test(10) || b.Test(1000) {
		t.Error("out-of-range Test must report false")
	}
}

func TestBitsSetAllTrims(t *testing.T) {
	b := NewBits(70)
	b.SetAll()
	if got := b.Count(); got != 70 {
		t.Fatalf("Count after SetAll = %d, want 70", got)
	}
	b2 := NewBits(70)
	for i := 0; i < 70; i++ {
		b2.Set(i)
	}
	if !b.Equal(b2) {
		t.Error("SetAll must equal setting every bit individually")
	}
}

func TestBitsLogicOps(t *testing.T) {
	a, err := FromString("1101001")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromString("1011001")
	if err != nil {
		t.Fatal(err)
	}
	and := a.Clone()
	and.And(b)
	if got := and.String(); got != "1001001" {
		t.Errorf("And = %s, want 1001001", got)
	}
	or := a.Clone()
	or.Or(b)
	if got := or.String(); got != "1111001" {
		t.Errorf("Or = %s, want 1111001", got)
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if got := andNot.String(); got != "0100000" {
		t.Errorf("AndNot = %s, want 0100000", got)
	}
}

func TestBitsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched lengths must panic")
		}
	}()
	NewBits(8).And(NewBits(9))
}

func TestBitsForEachOrder(t *testing.T) {
	b := NewBits(200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBitsForEachEarlyStop(t *testing.T) {
	b := NewBits(100)
	for i := 0; i < 100; i += 2 {
		b.Set(i)
	}
	n := 0
	b.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("ForEach visited %d bits after early stop, want 5", n)
	}
}

func TestBitsNextSet(t *testing.T) {
	b := NewBits(150)
	b.Set(5)
	b.Set(64)
	b.Set(149)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 149}, {149, 149}, {150, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if NewBits(10).NextSet(0) != -1 {
		t.Error("NextSet on empty must be -1")
	}
}

func TestBitsFromStringErrors(t *testing.T) {
	if _, err := FromString("01x1"); err == nil {
		t.Error("FromString must reject non-binary characters")
	}
}

func TestBitsRoundTripString(t *testing.T) {
	f := func(raw []bool) bool {
		b := NewBits(len(raw))
		for i, v := range raw {
			if v {
				b.Set(i)
			}
		}
		back, err := FromString(b.String())
		if err != nil {
			return false
		}
		return back.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsPositionsMatchForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBits(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		pos := b.Positions()
		if len(pos) != b.Count() {
			t.Fatalf("Positions len %d != Count %d", len(pos), b.Count())
		}
		for _, p := range pos {
			if !b.Test(int(p)) {
				t.Fatalf("position %d not actually set", p)
			}
		}
	}
}

func TestSetRangeAllSpans(t *testing.T) {
	// setRange is the word-wise fast path of OrInto; exercise every
	// alignment against a naive loop.
	for start := 0; start < 70; start++ {
		for length := 0; length < 70; length++ {
			got := NewBits(160)
			setRange(got, start, length)
			want := NewBits(160)
			for i := start; i < start+length; i++ {
				want.Set(i)
			}
			if !got.Equal(want) {
				t.Fatalf("setRange(%d,%d) mismatch", start, length)
			}
		}
	}
}

// spanBits returns a Bits of length n storing only the words of [lo, hi),
// with bits of that range set at density d, and the same bits in a Bits
// that stores every word.
func spanBits(rng *rand.Rand, n, lo, hi int, d float64) (span, full *Bits) {
	span, full = NewBitsSpan(n, lo, hi), NewBits(n)
	for i := lo; i < hi; i++ {
		if rng.Float64() < d {
			span.Set(i)
			full.Set(i)
		}
	}
	return span, full
}

// TestBitsSpanAgainstFull checks every operation on a Bits that stores a
// window of its words against the same bits stored whole, windows on word
// boundaries and off them, empty ones included.
func TestBitsSpanAgainstFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		a, fa := spanBits(rng, n, lo, hi, 0.4)
		lo2 := rng.Intn(n + 1)
		hi2 := lo2 + rng.Intn(n-lo2+1)
		b, fb := spanBits(rng, n, lo2, hi2, 0.6)

		if a.Count() != fa.Count() || a.Any() != fa.Any() || !a.Equal(fa) || !fa.Equal(a) {
			t.Fatalf("trial %d: span %v != full %v", trial, a, fa)
		}
		if a.String() != fa.String() || len(a.Positions()) != fa.Count() {
			t.Fatalf("trial %d: rendering %s != %s", trial, a, fa)
		}
		for i := -1; i <= n; i++ {
			if a.Test(i) != fa.Test(i) || a.NextSet(i) != fa.NextSet(i) {
				t.Fatalf("trial %d: bit %d: Test %v/%v NextSet %d/%d", trial, i, a.Test(i), fa.Test(i), a.NextSet(i), fa.NextSet(i))
			}
		}
		for name, op := range map[string]func(x, y *Bits){
			"And": (*Bits).And, "AndCompat": (*Bits).AndCompat, "AndNot": (*Bits).AndNot, "Or": (*Bits).Or,
		} {
			got, want := a.Clone(), fa.Clone()
			op(got, b)
			op(want, fb)
			if !got.Equal(want) {
				t.Fatalf("trial %d: %s: span %v, full %v", trial, name, got, want)
			}
		}
		c := a.Clone()
		c.SetAll()
		if c.Count() != n {
			t.Fatalf("trial %d: SetAll set %d of %d bits", trial, c.Count(), n)
		}
		c.ClearAll()
		if c.Any() {
			t.Fatalf("trial %d: ClearAll left bits set", trial)
		}

		// A row masked by the window behaves as masked by the whole, and
		// OrInto a window of the row's span loses no bit: for a scattered
		// (sparse) row and for one run (RLE).
		run := NewBits(n)
		for i := lo2; i < hi2; i++ {
			run.Set(i)
		}
		for _, row := range []*Row{RowFromBits(randomBits(rng, n, 0.3)), RowFromBits(run)} {
			if !row.And(a).Equal(row.And(fa)) {
				t.Fatalf("trial %d: Row.And differs under a windowed mask", trial)
			}
			slo, shi := row.Span()
			dst := NewBitsSpan(n, slo, shi)
			row.OrInto(dst)
			if !dst.Equal(row.Bits()) {
				t.Fatalf("trial %d: OrInto a window of the row's span: %v, want %v", trial, dst, row.Bits())
			}
		}
	}
}
