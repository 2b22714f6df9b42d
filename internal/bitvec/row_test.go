package bitvec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomBits(rng *rand.Rand, n int, density float64) *Bits {
	b := NewBits(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestRowPaperExamples(t *testing.T) {
	// Section 4: "1110011110" -> "[1] 3 2 4 1".
	b, err := FromString("1110011110")
	if err != nil {
		t.Fatal(err)
	}
	r := RowFromBits(b)
	if r.Encoding() != EncRLE {
		t.Fatalf("dense row encoded as %v, want rle", r.Encoding())
	}
	if got := r.String(); got != "[1] 3 2 4 1" {
		t.Errorf("String = %q, want \"[1] 3 2 4 1\"", got)
	}
	// "0010010000" has 2 set bits but needs 5 run integers, so the hybrid
	// codec stores the positions "2 5" (the paper lists 1-based positions
	// "3 6"; we index from 0).
	b2, err := FromString("0010010000")
	if err != nil {
		t.Fatal(err)
	}
	r2 := RowFromBits(b2)
	if r2.Encoding() != EncSparse {
		t.Fatalf("sparse row encoded as %v, want sparse", r2.Encoding())
	}
	if got := r2.String(); got != "2 5" {
		t.Errorf("String = %q, want \"2 5\"", got)
	}
	if r2.WireSize() >= r2.RLESize() {
		t.Errorf("hybrid must be smaller: wire %d vs rle %d", r2.WireSize(), r2.RLESize())
	}
}

func TestRowEmpty(t *testing.T) {
	r := EmptyRow(42)
	if !r.Empty() || r.Count() != 0 || r.Len() != 42 {
		t.Fatal("EmptyRow invariants violated")
	}
	if r.Test(0) || r.Test(41) {
		t.Error("empty row must have no set bits")
	}
	r.ForEach(func(i int) bool {
		t.Errorf("ForEach on empty row yielded %d", i)
		return true
	})
}

func TestRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		density := []float64{0.01, 0.1, 0.5, 0.9, 1.0}[rng.Intn(5)]
		b := randomBits(rng, n, density)
		r := RowFromBits(b)
		if r.Count() != b.Count() {
			t.Fatalf("Count %d != %d", r.Count(), b.Count())
		}
		if !r.Bits().Equal(b) {
			t.Fatalf("decompressed row differs (n=%d density=%v enc=%v)", n, density, r.Encoding())
		}
		for i := 0; i < n; i++ {
			if r.Test(i) != b.Test(i) {
				t.Fatalf("Test(%d) = %v, want %v", i, r.Test(i), b.Test(i))
			}
		}
	}
}

func TestRowHybridInvariant(t *testing.T) {
	// The stored form is always the smaller of RLE and sparse.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		b := randomBits(rng, n, rng.Float64())
		r := RowFromBits(b)
		if r.Count() == 0 {
			continue
		}
		switch r.Encoding() {
		case EncSparse:
			if r.Count() >= r.RLESize()-1 {
				t.Fatalf("sparse row with %d bits should be RLE (rle size %d): %s",
					r.Count(), r.RLESize(), b)
			}
		case EncRLE:
			if r.WireSize() > r.Count()+1 {
				t.Fatalf("RLE row with wire %d should be sparse (%d bits)",
					r.WireSize(), r.Count())
			}
		}
	}
}

func TestRowFromSortedPositions(t *testing.T) {
	r := RowFromSortedPositions(10, []uint32{2, 5, 9})
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	for _, p := range []int{2, 5, 9} {
		if !r.Test(p) {
			t.Errorf("bit %d should be set", p)
		}
	}
	if RowFromSortedPositions(10, nil).Count() != 0 {
		t.Error("nil positions must give empty row")
	}
}

func TestRowFromSortedPositionsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range position must panic")
		}
	}()
	RowFromSortedPositions(4, []uint32{4})
}

func TestRowAndAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		row := RowFromBits(randomBits(rng, n, rng.Float64()))
		mask := randomBits(rng, n, rng.Float64())
		got := row.And(mask)
		want := row.Bits()
		want.And(mask)
		if !got.Bits().Equal(want) {
			t.Fatalf("And mismatch: row=%v mask=%s", row, mask)
		}
		// Result must still honour the hybrid invariant.
		if got.Count() > 0 && got.Encoding() == EncEmpty {
			t.Fatal("non-empty row with EncEmpty")
		}
	}
}

func TestRowAndShortMask(t *testing.T) {
	// Mask shorter than the row: missing bits behave as zero.
	row := RowFromSortedPositions(100, []uint32{1, 50, 99})
	mask := NewBits(60)
	mask.Set(1)
	mask.Set(50)
	got := row.And(mask)
	if got.Count() != 2 || !got.Test(1) || !got.Test(50) || got.Test(99) {
		t.Errorf("And with short mask = %v", got)
	}
}

// TestRowAndOrNil checks AndOrNil against a plain-bits intersection on
// random rows and masks, full-length and stored over a random window
// (NewBitsSpan) that may cover the row, cut it or miss it: nil exactly
// when no bit survives, the receiver itself when every bit does, and
// otherwise the intersection in its hybrid encoding.
func TestRowAndOrNil(t *testing.T) {
	// A sparse row cut by the mask window at both ends, where the window's
	// first and last bits are set.
	row := RowFromSortedPositions(300, []uint32{10, 63, 64, 100, 127, 128, 200})
	mask := NewBitsSpan(300, 64, 128)
	for i := 64; i < 128; i++ {
		mask.Set(i)
	}
	var got []uint32
	row.AndOrNil(mask).ForEach(func(i int) bool { got = append(got, uint32(i)); return true })
	if !slices.Equal(got, []uint32{64, 100, 127}) {
		t.Fatalf("AndOrNil over the window [64, 128) = %v, want [64 100 127]", got)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(300)
		row := RowFromBits(randomBits(rng, n, rng.Float64()))
		var mask *Bits
		if trial%2 == 0 {
			mask = randomBits(rng, n, []float64{0, 1, rng.Float64()}[trial%3])
		} else {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			mask = NewBitsSpan(n, lo, hi)
			dens := []float64{0, 1, rng.Float64()}[trial%3]
			for i := lo; i < hi; i++ {
				if rng.Float64() < dens {
					mask.Set(i)
				}
			}
		}
		want := row.Bits()
		want.AndCompat(mask)
		got := row.AndOrNil(mask)
		switch {
		case want.Count() == 0:
			if got != nil {
				t.Fatalf("AndOrNil = %v, want nil: row=%v mask=%s", got, row, mask)
			}
		case want.Count() == row.Count():
			if got != row {
				t.Fatalf("every bit survives but AndOrNil did not return the receiver: row=%v mask=%s", row, mask)
			}
		case !got.Bits().Equal(want) || got.Encoding() != RowFromBits(want).Encoding():
			t.Fatalf("AndOrNil = %v, want %s: row=%v mask=%s", got, want, row, mask)
		}
	}
}

// TestRowAndOrNilAllocs pins the allocations of the unfold's row step
// (Matrix.UnfoldCols calls AndOrNil): a mask that keeps every bit of a
// row, or none, allocates nothing on either encoding; And allocates
// nothing when every bit survives.
func TestRowAndOrNilAllocs(t *testing.T) {
	const n = 1 << 12
	rows := map[string]*Row{
		"sparse": RowFromSortedPositions(n, []uint32{3, 70, 700, 4000}),
		"rle":    RowFromSortedPositions(n, []uint32{64, 65, 66, 67, 68, 69, 70, 71, 72, 200, 201, 202, 203}),
	}
	all, none := NewBitsSet(n), NewBits(n)
	for name, row := range rows {
		if (name == "rle") != (row.Encoding() == EncRLE) {
			t.Fatalf("%s fixture has encoding %v", name, row.Encoding())
		}
		var sink *Row
		if a := testing.AllocsPerRun(100, func() { sink = row.AndOrNil(all) }); a != 0 || sink != row {
			t.Errorf("%s: AndOrNil(all) made %v allocations", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { sink = row.AndOrNil(none) }); a != 0 || sink != nil {
			t.Errorf("%s: AndOrNil(none) made %v allocations", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { sink = row.And(all) }); a != 0 || sink != row {
			t.Errorf("%s: And(all) made %v allocations", name, a)
		}
	}
}

func TestRowOrIntoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		row := RowFromBits(randomBits(rng, n, rng.Float64()))
		acc := randomBits(rng, n, 0.2)
		want := acc.Clone()
		want.Or(row.Bits())
		row.OrInto(acc)
		if !acc.Equal(want) {
			t.Fatalf("OrInto mismatch (enc=%v)", row.Encoding())
		}
	}
}

func TestRowRunsCoverAllBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		row := RowFromBits(randomBits(rng, n, rng.Float64()))
		covered := NewBits(n)
		prevEnd := -1
		row.Runs(func(start, length int) bool {
			if length <= 0 {
				t.Fatalf("empty run at %d", start)
			}
			if start <= prevEnd {
				t.Fatalf("runs not strictly separated: start %d after end %d", start, prevEnd)
			}
			for i := start; i < start+length; i++ {
				covered.Set(i)
			}
			prevEnd = start + length
			return true
		})
		if !covered.Equal(row.Bits()) {
			t.Fatal("Runs does not cover exactly the set bits")
		}
	}
}

func TestRowEqualAcrossEncodings(t *testing.T) {
	// The same logical contents in RLE and sparse form must be Equal.
	b, _ := FromString("0010010000")
	sparse := RowFromBits(b) // hybrid picks sparse
	rle := sparse.toRLE()
	if !sparse.Equal(rle) || !rle.Equal(sparse) {
		t.Error("Equal must ignore encoding")
	}
	other, _ := FromString("0010010001")
	if sparse.Equal(RowFromBits(other)) {
		t.Error("different contents must not be Equal")
	}
}

func mustBits(t *testing.T, s string) *Bits {
	t.Helper()
	b, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQuickRowAndIsIntersection(t *testing.T) {
	f := func(raw []bool, maskRaw []bool) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		b := NewBits(n)
		for i, v := range raw {
			if v {
				b.Set(i)
			}
		}
		mask := NewBits(n)
		for i, v := range maskRaw {
			if i >= n {
				break
			}
			if v {
				mask.Set(i)
			}
		}
		got := RowFromBits(b).And(mask)
		for i := 0; i < n; i++ {
			if got.Test(i) != (b.Test(i) && mask.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRowCodecIdempotent(t *testing.T) {
	// Compress, decompress, recompress: identical contents and encoding.
	f := func(raw []bool) bool {
		b := NewBits(len(raw))
		for i, v := range raw {
			if v {
				b.Set(i)
			}
		}
		r1 := RowFromBits(b)
		r2 := RowFromBits(r1.Bits())
		return r1.Equal(r2) && r1.Encoding() == r2.Encoding()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRowAndRLE(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row := RowFromBits(randomBits(rng, 1<<16, 0.6))
	mask := randomBits(rng, 1<<16, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = row.And(mask)
	}
}

func BenchmarkRowAndSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row := RowFromBits(randomBits(rng, 1<<16, 0.001))
	mask := randomBits(rng, 1<<16, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = row.And(mask)
	}
}

func BenchmarkRowOrInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row := RowFromBits(randomBits(rng, 1<<16, 0.3))
	acc := NewBits(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row.OrInto(acc)
	}
}

// TestRowRawAgainstForEach decodes the storage Raw exposes, the way the
// join's inline loops do, and checks it yields exactly ForEach's bits for
// every encoding.
func TestRowRawAgainstForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 90; trial++ {
		n := 1 + rng.Intn(300)
		density := []float64{0, 0.02, 0.5, 0.95, 1}[trial%5]
		r := RowFromBits(randomBits(rng, n, density))
		var want []int
		r.ForEach(func(i int) bool {
			want = append(want, i)
			return true
		})
		pos, runs, first := r.Raw()
		var got []int
		switch r.Encoding() {
		case EncRLE:
			if pos != nil {
				t.Fatalf("RLE row exposes positions %v", pos)
			}
			v, at := first, 0
			for _, rl := range runs {
				if rl == 0 {
					t.Fatalf("RLE row exposes an empty run: %v", runs)
				}
				for i := at; v && i < at+int(rl); i++ {
					got = append(got, i)
				}
				at += int(rl)
				v = !v
			}
			if at != n {
				t.Fatalf("runs sum to %d, want %d", at, n)
			}
		default:
			if runs != nil {
				t.Fatalf("%v row exposes runs %v", r.Encoding(), runs)
			}
			for _, p := range pos {
				got = append(got, int(p))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("enc=%v n=%d: Raw decodes to %v, ForEach gives %v", r.Encoding(), n, got, want)
		}
	}
}

func TestRowForEachRangeAgainstForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		density := []float64{0.02, 0.5, 0.95}[trial%3]
		r := RowFromBits(randomBits(rng, n, density))
		lo, hi := rng.Intn(n+2)-1, rng.Intn(n+2)-1
		var want []int
		r.ForEach(func(i int) bool {
			if i >= lo && i < hi {
				want = append(want, i)
			}
			return true
		})
		var got []int
		r.ForEachRange(lo, hi, func(i int) bool {
			got = append(got, i)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("enc=%v n=%d [%d,%d): got %d bits, want %d", r.Encoding(), n, lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("enc=%v n=%d [%d,%d) pos %d: got %d, want %d", r.Encoding(), n, lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestRowForEachRangeEarlyStop(t *testing.T) {
	b, err := FromString("1110011110")
	if err != nil {
		t.Fatal(err)
	}
	r := RowFromBits(b)
	var got []int
	r.ForEachRange(1, 9, func(i int) bool {
		got = append(got, i)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("early stop got %v, want [1 2]", got)
	}
}
