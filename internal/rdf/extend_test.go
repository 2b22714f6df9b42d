package rdf

import "testing"

// extendBase builds a dictionary whose shared band is {b} (subject and
// object), with s0 as an S-only term and o0 as an O-only term.
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
		{"s0 subject", d.SubjectID(NewIRI("s0")), nd.SubjectID(NewIRI("s0"))},
		{"b subject", d.SubjectID(NewIRI("b")), nd.SubjectID(NewIRI("b"))},
		{"b object", d.ObjectID(NewIRI("b")), nd.ObjectID(NewIRI("b"))},
		{"o0 object", d.ObjectID(NewIRI("o0")), nd.ObjectID(NewIRI("o0"))},
		{"p0 predicate", d.PredicateID(NewIRI("p0")), nd.PredicateID(NewIRI("p0"))},
	} {
		if term.base == 0 || term.base != term.ext {
			t.Errorf("%s: base ID %d, extended ID %d", term.name, term.base, term.ext)
		}
	}
	if d.Extended() {
		t.Error("base dictionary must not report Extended")
	}
	if !nd.Extended() {
		t.Error("extension that cross-pairs terms must report Extended")
	}
	// The receiver must be untouched: new terms invisible through d.
	if d.SubjectID(NewIRI("s1")) != 0 || d.ObjectID(NewIRI("o1")) != 0 {
		t.Error("Extend mutated its receiver")
	}
}

func TestExtendCrossDimensionPairs(t *testing.T) {
	d := extendBase(t)
	// o0 (O-only in the base) gains a subject role; s0 (S-only) gains an
	// object role. Both land outside the shared band, so they must appear
	// as extension pairs with the ext maps agreeing in both directions.
	nd := d.Extend([]Triple{T("o0", "p0", "s0")})
	pairs := nd.ExtSharedPairs()
	if len(pairs) != 2 {
		t.Fatalf("want 2 ext pairs, got %v", pairs)
	}
	for _, name := range []string{"s0", "o0"} {
		s, o := nd.SubjectID(NewIRI(name)), nd.ObjectID(NewIRI(name))
		if s == 0 || o == 0 {
			t.Fatalf("%s missing a role: s=%d o=%d", name, s, o)
		}
		if nd.SubjectToObject(s) != o || nd.ObjectToSubject(o) != s {
			t.Errorf("%s: ext maps disagree (s=%d o=%d, SubjectToObject=%d ObjectToSubject=%d)",
				name, s, o, nd.SubjectToObject(s), nd.ObjectToSubject(o))
		}
	}
	// Shared-band terms keep the identity mapping.
	b := nd.SubjectID(NewIRI("b"))
	if nd.SubjectToObject(b) != b {
		t.Errorf("shared-band term must map to itself, got %d", nd.SubjectToObject(b))
	}
	// A term with no object role maps to 0.
	b2 := NewDictionaryBuilder()
	b2.Add(T("x", "p", "y"))
	d2, _ := b2.Build()
	if got := d2.SubjectToObject(d2.SubjectID(NewIRI("x"))); got != 0 {
		t.Errorf("S-only term must map to 0, got %d", got)
	}
}

func TestExtendDeterministicFirstOccurrence(t *testing.T) {
	d := extendBase(t)
	ts := []Triple{T("n1", "p1", "n2"), T("n2", "p1", "n1"), T("n1", "p0", "n3")}
	a, b := d.Extend(ts), d.Extend(ts)
	for _, name := range []string{"n1", "n2", "n3"} {
		if a.SubjectID(NewIRI(name)) != b.SubjectID(NewIRI(name)) ||
			a.ObjectID(NewIRI(name)) != b.ObjectID(NewIRI(name)) {
			t.Errorf("%s: two Extend runs over the same sequence assigned different IDs", name)
		}
	}
	// First occurrence order decides the appended IDs: n1 before n2.
	if !(a.SubjectID(NewIRI("n1")) < a.SubjectID(NewIRI("n2"))) {
		t.Errorf("append order must follow first occurrence: n1=%d n2=%d",
			a.SubjectID(NewIRI("n1")), a.SubjectID(NewIRI("n2")))
	}
}

func TestExtendIsChainable(t *testing.T) {
	d := extendBase(t)
	// Two single-step extensions must agree with one two-step chain on
	// every ID (same overall first-occurrence sequence).
	step1 := []Triple{T("n1", "p0", "b")}
	step2 := []Triple{T("b", "p0", "n1")} // gives n1 an object role → ext pair
	chained := d.Extend(step1).Extend(step2)
	direct := d.Extend(append(append([]Triple{}, step1...), step2...))
	if chained.SubjectID(NewIRI("n1")) != direct.SubjectID(NewIRI("n1")) ||
		chained.ObjectID(NewIRI("n1")) != direct.ObjectID(NewIRI("n1")) {
		t.Fatal("chained Extend diverged from single-shot Extend")
	}
	if len(chained.ExtSharedPairs()) != 1 || len(direct.ExtSharedPairs()) != 1 {
		t.Fatalf("want one ext pair from both paths, got %v / %v",
			chained.ExtSharedPairs(), direct.ExtSharedPairs())
	}
}
