package rdf

import (
	"bytes"
	"testing"
)

func TestDictionarySerializationRoundTrip(t *testing.T) {
	g := sampleGraph()
	g.Add(Triple{S: NewIRI("s1"), P: NewIRI("p1"), O: NewLangLiteral("bonjour", "fr")})
	g.Add(Triple{S: NewIRI("s1"), P: NewIRI("p2"), O: NewTypedLiteral("42", "http://xsd/int")})
	g.Add(Triple{S: NewBlank("bn"), P: NewIRI("p1"), O: NewLiteral("plain")})
	d := g.Dictionary()

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumShared() != d.NumShared() || back.NumSubjects() != d.NumSubjects() ||
		back.NumObjects() != d.NumObjects() || back.NumPredicates() != d.NumPredicates() {
		t.Fatalf("shape mismatch: %d/%d/%d/%d vs %d/%d/%d/%d",
			back.NumShared(), back.NumSubjects(), back.NumObjects(), back.NumPredicates(),
			d.NumShared(), d.NumSubjects(), d.NumObjects(), d.NumPredicates())
	}
	// Every triple must encode to identical coordinates.
	for _, tr := range g.Triples() {
		e1, err1 := d.Encode(tr)
		e2, err2 := back.Encode(tr)
		if err1 != nil || err2 != nil || e1 != e2 {
			t.Fatalf("coordinate mismatch for %s: %+v/%v vs %+v/%v", tr, e1, err1, e2, err2)
		}
	}
	// And decode back to identical terms.
	for id := 1; id <= d.NumSubjects(); id++ {
		a, _ := d.Subject(ID(id))
		b, _ := back.Subject(ID(id))
		if a != b {
			t.Fatalf("subject %d differs: %v vs %v", id, a, b)
		}
	}
}

func TestReadDictionaryRejectsCorrupt(t *testing.T) {
	d := sampleGraph().Dictionary()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadDictionary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic must be rejected")
	}

	// Truncated stream.
	if _, err := ReadDictionary(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated dictionary must be rejected")
	}

	// Corrupt header: shared > subjects.
	bad2 := append([]byte(nil), raw...)
	bad2[8] = 0xff
	bad2[9] = 0xff
	if _, err := ReadDictionary(bytes.NewReader(bad2)); err == nil {
		t.Error("implausible header must be rejected")
	}
}

func TestDictionarySerializationEmpty(t *testing.T) {
	d, _ := NewDictionaryBuilder().Build()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSubjects() != 0 || back.NumPredicates() != 0 {
		t.Error("empty dictionary round trip broken")
	}
}
