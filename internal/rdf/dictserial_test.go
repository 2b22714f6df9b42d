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
	if back.NumSO() != d.NumSO() || back.NumPredicates() != d.NumPredicates() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			back.NumSO(), back.NumPredicates(), d.NumSO(), d.NumPredicates())
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
	for id := 1; id <= d.NumSO(); id++ {
		a, _ := d.SOTerm(ID(id))
		b, _ := back.SOTerm(ID(id))
		if a != b {
			t.Fatalf("S/O term %d differs: %v vs %v", id, a, b)
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

	// Corrupt header: more S/O terms than the stream holds.
	bad2 := append([]byte(nil), raw...)
	bad2[8] = 0xff
	bad2[9] = 0xff
	if _, err := ReadDictionary(bytes.NewReader(bad2)); err == nil {
		t.Error("implausible header must be rejected")
	}

	// The Appendix-D layout of separate S and O spaces is not read.
	old := append([]byte("LBRDICT1"), raw[len(dictMagic):]...)
	if _, err := ReadDictionary(bytes.NewReader(old)); err == nil {
		t.Error("an LBRDICT1 dictionary must be rejected")
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
	if back.NumSO() != 0 || back.NumPredicates() != 0 {
		t.Error("empty dictionary round trip broken")
	}
}
