package rdf

import (
	"fmt"
	"sort"
)

// ID is an integer coordinate in one dimension of the bitcube. IDs start at
// 1; 0 is reserved as "absent". The paper maps the shared subject/object
// values Vso to 1..|Vso| on both the S and O dimension so that an S-O join
// is equality of bit positions (Appendix D).
type ID uint32

// Dictionary maps terms to bitcube coordinates and back. Build one with
// NewDictionaryBuilder; a built Dictionary is immutable and safe for
// concurrent readers.
type Dictionary struct {
	// subjects[i-1] / objects[i-1] / predicates[i-1] hold the term with ID i
	// in the respective dimension. The first NumSO entries of subjects and
	// objects are identical (the shared Vso prefix).
	subjects   []Term
	objects    []Term
	predicates []Term

	subjectID   map[string]ID
	objectID    map[string]ID
	predicateID map[string]ID

	numSO int // |Vso|

	// Extension bands (see extend.go). A base dictionary built by
	// DictionaryBuilder leaves these nil: every shared term sits in the
	// 1..numSO prefix. Extend populates them when a delta gives a term a
	// second role that the prefix layout cannot express.
	extSO    map[ID]ID // subject ID -> object ID for the same term, beyond the band
	extOS    map[ID]ID // object ID -> subject ID for the same term, beyond the band
	extPairs []ExtPair // the same mapping, sorted by S
}

// NumSubjects returns |Vs|.
func (d *Dictionary) NumSubjects() int { return len(d.subjects) }

// NumObjects returns |Vo|.
func (d *Dictionary) NumObjects() int { return len(d.objects) }

// NumPredicates returns |Vp|.
func (d *Dictionary) NumPredicates() int { return len(d.predicates) }

// NumShared returns |Vso|, the number of values that occur as both subject
// and object and therefore share the 1..|Vso| ID prefix on both dimensions.
func (d *Dictionary) NumShared() int { return d.numSO }

// SubjectID returns the S-dimension ID of t, or 0 if t never occurs as a
// subject.
func (d *Dictionary) SubjectID(t Term) ID { return d.subjectID[t.Key()] }

// ObjectID returns the O-dimension ID of t, or 0 if t never occurs as an
// object.
func (d *Dictionary) ObjectID(t Term) ID { return d.objectID[t.Key()] }

// PredicateID returns the P-dimension ID of t, or 0 if t never occurs as a
// predicate.
func (d *Dictionary) PredicateID(t Term) ID { return d.predicateID[t.Key()] }

// Subject returns the term with S-dimension ID id.
func (d *Dictionary) Subject(id ID) (Term, error) {
	if id == 0 || int(id) > len(d.subjects) {
		return Term{}, fmt.Errorf("rdf: subject ID %d out of range [1,%d]", id, len(d.subjects))
	}
	return d.subjects[id-1], nil
}

// Object returns the term with O-dimension ID id.
func (d *Dictionary) Object(id ID) (Term, error) {
	if id == 0 || int(id) > len(d.objects) {
		return Term{}, fmt.Errorf("rdf: object ID %d out of range [1,%d]", id, len(d.objects))
	}
	return d.objects[id-1], nil
}

// Predicate returns the term with P-dimension ID id.
func (d *Dictionary) Predicate(id ID) (Term, error) {
	if id == 0 || int(id) > len(d.predicates) {
		return Term{}, fmt.Errorf("rdf: predicate ID %d out of range [1,%d]", id, len(d.predicates))
	}
	return d.predicates[id-1], nil
}

// SharedID reports whether an S ID and an O ID denote the same entity: true
// exactly when they are equal and within the shared prefix, or when an
// extension pair links them. For IDs produced by a base dictionary equality
// within 1..NumShared is the complete rule.
func (d *Dictionary) SharedID(s, o ID) bool {
	return s != 0 && d.SubjectToObject(s) == o
}

// BuildDictionary returns the Appendix-D dictionary of a triple slice:
// every triple added to one DictionaryBuilder, then Build.
func BuildDictionary(triples []Triple) *Dictionary {
	b := NewDictionaryBuilder()
	for _, tr := range triples {
		b.Add(tr)
	}
	return b.Build()
}

// DictionaryBuilder accumulates the term universe of a graph and assigns
// the Appendix-D coordinate layout on Build.
type DictionaryBuilder struct {
	subjects   map[string]Term
	objects    map[string]Term
	predicates map[string]Term
}

// NewDictionaryBuilder returns an empty builder.
func NewDictionaryBuilder() *DictionaryBuilder {
	return &DictionaryBuilder{
		subjects:   map[string]Term{},
		objects:    map[string]Term{},
		predicates: map[string]Term{},
	}
}

// Add records the terms of one triple.
func (b *DictionaryBuilder) Add(tr Triple) {
	b.subjects[tr.S.Key()] = tr.S
	b.predicates[tr.P.Key()] = tr.P
	b.objects[tr.O.Key()] = tr.O
}

// Build assigns IDs:
//
//	Vso (terms in both Vs and Vo) -> 1..|Vso| on both dimensions,
//	Vs-Vso -> |Vso|+1..|Vs| on the S dimension,
//	Vo-Vso -> |Vso|+1..|Vo| on the O dimension,
//	Vp -> 1..|Vp| on the P dimension.
//
// Within each band terms are ordered lexicographically by key so the
// assignment is deterministic.
func (b *DictionaryBuilder) Build() *Dictionary {
	shared := make([]string, 0)
	sOnly := make([]string, 0)
	for k := range b.subjects {
		if _, ok := b.objects[k]; ok {
			shared = append(shared, k)
		} else {
			sOnly = append(sOnly, k)
		}
	}
	oOnly := make([]string, 0)
	for k := range b.objects {
		if _, ok := b.subjects[k]; !ok {
			oOnly = append(oOnly, k)
		}
	}
	preds := make([]string, 0, len(b.predicates))
	for k := range b.predicates {
		preds = append(preds, k)
	}
	sort.Strings(shared)
	sort.Strings(sOnly)
	sort.Strings(oOnly)
	sort.Strings(preds)

	d := &Dictionary{
		subjects:    make([]Term, 0, len(shared)+len(sOnly)),
		objects:     make([]Term, 0, len(shared)+len(oOnly)),
		predicates:  make([]Term, 0, len(preds)),
		subjectID:   make(map[string]ID, len(shared)+len(sOnly)),
		objectID:    make(map[string]ID, len(shared)+len(oOnly)),
		predicateID: make(map[string]ID, len(preds)),
		numSO:       len(shared),
	}
	termOf := func(k string) Term {
		if t, ok := b.subjects[k]; ok {
			return t
		}
		if t, ok := b.objects[k]; ok {
			return t
		}
		return b.predicates[k]
	}
	for _, k := range shared {
		t := termOf(k)
		d.subjects = append(d.subjects, t)
		d.objects = append(d.objects, t)
		id := ID(len(d.subjects))
		d.subjectID[k] = id
		d.objectID[k] = id
	}
	for _, k := range sOnly {
		d.subjects = append(d.subjects, termOf(k))
		d.subjectID[k] = ID(len(d.subjects))
	}
	for _, k := range oOnly {
		d.objects = append(d.objects, termOf(k))
		d.objectID[k] = ID(len(d.objects))
	}
	for _, k := range preds {
		d.predicates = append(d.predicates, b.predicates[k])
		d.predicateID[k] = ID(len(d.predicates))
	}
	return d
}

// IDTriple is a triple in coordinate form.
type IDTriple struct {
	S, P, O ID
}

// Encode maps a term triple to coordinates. It fails if any term is unknown
// in its dimension.
func (d *Dictionary) Encode(tr Triple) (IDTriple, error) {
	s := d.SubjectID(tr.S)
	if s == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown subject %s", tr.S)
	}
	p := d.PredicateID(tr.P)
	if p == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown predicate %s", tr.P)
	}
	o := d.ObjectID(tr.O)
	if o == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown object %s", tr.O)
	}
	return IDTriple{S: s, P: p, O: o}, nil
}

// Decode maps coordinates back to a term triple.
func (d *Dictionary) Decode(it IDTriple) (Triple, error) {
	s, err := d.Subject(it.S)
	if err != nil {
		return Triple{}, err
	}
	p, err := d.Predicate(it.P)
	if err != nil {
		return Triple{}, err
	}
	o, err := d.Object(it.O)
	if err != nil {
		return Triple{}, err
	}
	return Triple{S: s, P: p, O: o}, nil
}
