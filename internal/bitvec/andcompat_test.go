package bitvec

import (
	"math/rand"
	"testing"
)

func TestAndCompatEqualLengths(t *testing.T) {
	a := mustBits(t, "110110")
	b := mustBits(t, "101010")
	a.AndCompat(b)
	if got := a.String(); got != "100010" {
		t.Errorf("AndCompat = %s, want 100010", got)
	}
}

func TestAndCompatShorterOther(t *testing.T) {
	// Bits beyond other's length behave as 0.
	a := NewBitsSet(130)
	b := NewBitsSet(70)
	a.AndCompat(b)
	if a.Count() != 70 {
		t.Fatalf("Count = %d, want 70", a.Count())
	}
	for i := 70; i < 130; i++ {
		if a.Test(i) {
			t.Fatalf("bit %d should be cleared", i)
		}
	}
	for i := 0; i < 70; i++ {
		if !a.Test(i) {
			t.Fatalf("bit %d should survive", i)
		}
	}
}

func TestAndCompatLongerOther(t *testing.T) {
	// A longer other simply intersects the prefix.
	a := NewBitsSet(50)
	b := NewBits(200)
	b.Set(10)
	b.Set(49)
	b.Set(150) // beyond a's range, ignored
	a.AndCompat(b)
	if a.Count() != 2 || !a.Test(10) || !a.Test(49) {
		t.Errorf("AndCompat with longer other: %s", a)
	}
}

func TestAndCompatAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.Intn(300), 1+rng.Intn(300)
		a := randomBits(rng, na, rng.Float64())
		b := randomBits(rng, nb, rng.Float64())
		got := a.Clone()
		got.AndCompat(b)
		for i := 0; i < na; i++ {
			want := a.Test(i) && b.Test(i) // b.Test is false out of range
			if got.Test(i) != want {
				t.Fatalf("bit %d: got %v want %v (na=%d nb=%d)", i, got.Test(i), want, na, nb)
			}
		}
	}
}

func TestAndCompatWordBoundaries(t *testing.T) {
	// The other's last partial word must mask correctly.
	for nb := 60; nb <= 68; nb++ {
		a := NewBitsSet(128)
		b := NewBitsSet(nb)
		a.AndCompat(b)
		if a.Count() != nb {
			t.Errorf("nb=%d: Count = %d", nb, a.Count())
		}
	}
}

// andCountSink keeps AndCount's result live in the allocation check.
var andCountSink int

// TestAndCountAgainstAndCompat checks AndCount against the population of
// an AndCompat, both ways round, for vectors of different lengths that
// store windows on and off word boundaries (empty ones included), and
// that it allocates nothing.
func TestAndCountAgainstAndCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	window := func(n int) *Bits {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		b, _ := spanBits(rng, n, lo, hi, rng.Float64())
		return b
	}
	for trial := 0; trial < 300; trial++ {
		a, b := window(1+rng.Intn(300)), window(1+rng.Intn(300))
		want := a.Clone()
		want.AndCompat(b)
		if got := a.AndCount(b); got != want.Count() {
			t.Fatalf("trial %d: %v AndCount %v = %d, want %d", trial, a, b, got, want.Count())
		}
		if got := b.AndCount(a); got != want.Count() {
			t.Fatalf("trial %d: %v AndCount %v = %d, want %d", trial, b, a, got, want.Count())
		}
	}
	a, b := randomBits(rng, 1000, 0.5), randomBits(rng, 700, 0.5)
	if n := testing.AllocsPerRun(10, func() { andCountSink += a.AndCount(b) }); n != 0 {
		t.Errorf("AndCount allocates %v times, want 0", n)
	}
}
