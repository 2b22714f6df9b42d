package rdf

import "testing"

// extendBase builds a dictionary where b is both a subject and an object,
// s0 only a subject and o0 only an object.
func extendBase(t *testing.T) *Dictionary {
	t.Helper()
	b := NewDictionaryBuilder()
	b.Add(T("s0", "p0", "b"))
	b.Add(T("b", "p0", "o0"))
	d, _ := b.Build()
	return d
}

func TestExtendPreservesBaseIDs(t *testing.T) {
	d := extendBase(t)
	nd := d.Extend([]Triple{T("s1", "p1", "o1"), T("o0", "p0", "s0")})
	for _, term := range []struct {
		name string
		base ID
		ext  ID
	}{
		{"s0", d.SOID(NewIRI("s0")), nd.SOID(NewIRI("s0"))},
		{"b", d.SOID(NewIRI("b")), nd.SOID(NewIRI("b"))},
		{"o0", d.SOID(NewIRI("o0")), nd.SOID(NewIRI("o0"))},
		{"p0 predicate", d.PredicateID(NewIRI("p0")), nd.PredicateID(NewIRI("p0"))},
	} {
		if term.base == 0 || term.base != term.ext {
			t.Errorf("%s: base ID %d, extended ID %d", term.name, term.base, term.ext)
		}
	}
	if nd.NumSO() != d.NumSO()+2 || nd.NumPredicates() != d.NumPredicates()+1 {
		t.Errorf("extension holds %d S/O and %d P terms, want %d and %d",
			nd.NumSO(), nd.NumPredicates(), d.NumSO()+2, d.NumPredicates()+1)
	}
	// The receiver must be untouched: new terms invisible through d.
	if d.SOID(NewIRI("s1")) != 0 || d.SOID(NewIRI("o1")) != 0 {
		t.Error("Extend mutated its receiver")
	}
}

// TestExtendCrossDimensionPairs gives o0 (only an object in the base) a
// subject role and s0 (only a subject) an object role: each term's
// subject and object coordinates stay one ID, its base ID, and the
// extension appends nothing to the S/O space.
func TestExtendCrossDimensionPairs(t *testing.T) {
	d := extendBase(t)
	nd := d.Extend([]Triple{T("o0", "p0", "s0")})
	if nd.NumSO() != d.NumSO() {
		t.Fatalf("NumSO %d, want %d: a term gaining its second role got a new ID", nd.NumSO(), d.NumSO())
	}
	for _, name := range []string{"s0", "o0"} {
		if nd.SOID(NewIRI(name)) != d.SOID(NewIRI(name)) {
			t.Errorf("%s: ID %d, base ID %d", name, nd.SOID(NewIRI(name)), d.SOID(NewIRI(name)))
		}
	}
	it, err := nd.Encode(T("o0", "p0", "s0"))
	if err != nil {
		t.Fatal(err)
	}
	if it.S != d.SOID(NewIRI("o0")) || it.O != d.SOID(NewIRI("s0")) {
		t.Errorf("Encode = %+v, want the base IDs of o0 and s0", it)
	}
}

func TestExtendDeterministicFirstOccurrence(t *testing.T) {
	d := extendBase(t)
	ts := []Triple{T("n1", "p1", "n2"), T("n2", "p1", "n1"), T("n1", "p0", "n3")}
	a, b := d.Extend(ts), d.Extend(ts)
	for _, name := range []string{"n1", "n2", "n3"} {
		if a.SOID(NewIRI(name)) != b.SOID(NewIRI(name)) {
			t.Errorf("%s: two Extend runs over the same sequence assigned different IDs", name)
		}
	}
	// First occurrence order decides the appended IDs: n1, n2, n3.
	n1, n2, n3 := a.SOID(NewIRI("n1")), a.SOID(NewIRI("n2")), a.SOID(NewIRI("n3"))
	if int(n1) != d.NumSO()+1 || n2 != n1+1 || n3 != n2+1 {
		t.Errorf("append order must follow first occurrence: n1=%d n2=%d n3=%d", n1, n2, n3)
	}
}

func TestExtendIsChainable(t *testing.T) {
	d := extendBase(t)
	// Two single-step extensions must agree with one two-step chain on
	// every ID (same overall first-occurrence sequence).
	step1 := []Triple{T("n1", "p0", "b")}
	step2 := []Triple{T("b", "p0", "n1"), T("n2", "p2", "n1")} // n1 gains its object role
	chained := d.Extend(step1).Extend(step2)
	direct := d.Extend(append(append([]Triple{}, step1...), step2...))
	for _, name := range []string{"n1", "n2"} {
		if chained.SOID(NewIRI(name)) != direct.SOID(NewIRI(name)) {
			t.Fatalf("%s: chained Extend diverged from single-shot Extend", name)
		}
	}
	if chained.PredicateID(NewIRI("p2")) != direct.PredicateID(NewIRI("p2")) {
		t.Fatal("p2: chained Extend diverged from single-shot Extend")
	}
	if chained.NumSO() != d.NumSO()+2 || direct.NumSO() != d.NumSO()+2 {
		t.Fatalf("NumSO %d / %d, want %d", chained.NumSO(), direct.NumSO(), d.NumSO()+2)
	}
}
