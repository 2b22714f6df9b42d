package rdf

import (
	"fmt"
	"slices"
	"strings"
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

// Role bits of an interned term: the dimensions it occurs in.
const (
	roleS uint8 = 1 << iota
	roleP
	roleO
)

// DictionaryBuilder interns the terms of a graph as its triples arrive and
// assigns the Appendix-D coordinate layout on Build. Its one term table is
// keyed by the comparable Term value, so an occurrence costs a map lookup
// and no allocation. A term's strings are copied the first time it is
// seen, so the builder never keeps a caller's larger string (a scanned
// input line, say) alive.
type DictionaryBuilder struct {
	ids   map[Term]ID // term -> provisional ID
	terms []Term      // terms[id-1] is the term with provisional ID id
	roles []uint8     // roles[id-1] is its role bits
}

// NewDictionaryBuilder returns an empty builder.
func NewDictionaryBuilder() *DictionaryBuilder {
	return &DictionaryBuilder{ids: map[Term]ID{}}
}

// Add interns the terms of one triple and returns it in provisional IDs:
// one ID space shared by all three roles, numbered from 1 in first-seen
// order. The Remap that Build returns turns them into coordinates.
func (b *DictionaryBuilder) Add(tr Triple) IDTriple {
	return IDTriple{S: b.intern(tr.S, roleS), P: b.intern(tr.P, roleP), O: b.intern(tr.O, roleO)}
}

func (b *DictionaryBuilder) intern(t Term, role uint8) ID {
	id, ok := b.ids[t]
	if !ok {
		t = Term{Kind: t.Kind, Value: strings.Clone(t.Value), Datatype: strings.Clone(t.Datatype), Lang: strings.Clone(t.Lang)}
		b.terms = append(b.terms, t)
		b.roles = append(b.roles, 0)
		id = ID(len(b.terms))
		b.ids[t] = id
	}
	b.roles[id-1] |= role
	return id
}

// Term returns the term with provisional ID id.
func (b *DictionaryBuilder) Term(id ID) Term { return b.terms[id-1] }

// Remap maps a DictionaryBuilder's provisional IDs to the coordinates of
// the Dictionary its Build returned, one table per dimension.
type Remap struct {
	s, p, o []ID // indexed by provisional ID; 0 where the term lacks the role
}

// Triple returns a provisional triple of the builder in coordinates.
func (r *Remap) Triple(pt IDTriple) IDTriple {
	return IDTriple{S: r.s[pt.S], P: r.p[pt.P], O: r.o[pt.O]}
}

// Build assigns IDs once per distinct term:
//
//	Vso (terms in both Vs and Vo) -> 1..|Vso| on both dimensions,
//	Vs-Vso -> |Vso|+1..|Vs| on the S dimension,
//	Vo-Vso -> |Vso|+1..|Vo| on the O dimension,
//	Vp -> 1..|Vp| on the P dimension.
//
// Within each band terms are ordered lexicographically by key so the
// assignment depends only on the term set. Terms with equal keys (Term
// values that differ only in fields their kind ignores) share one ID, as
// every key-based lookup would treat them. Build returns the dictionary
// and the provisional-to-final Remap.
func (b *DictionaryBuilder) Build() (*Dictionary, *Remap) {
	n := len(b.terms)
	keys := make([]string, n+1)
	order := make([]ID, n)
	for i, t := range b.terms {
		keys[i+1] = t.Key()
		order[i] = ID(i + 1)
	}
	slices.SortStableFunc(order, func(x, y ID) int { return strings.Compare(keys[x], keys[y]) })

	// canon[id] is the first provisional ID in key order with id's key,
	// and roles gathers each key's role bits on that canonical ID.
	canon := make([]ID, n+1)
	roles := make([]uint8, n+1)
	for i, id := range order {
		canon[id] = id
		if i > 0 && keys[id] == keys[order[i-1]] {
			canon[id] = canon[order[i-1]]
		}
		roles[canon[id]] |= b.roles[id-1]
	}
	// The bands, each in key order.
	var shared, sOnly, oOnly, preds []ID
	for _, id := range order {
		if canon[id] != id {
			continue
		}
		switch roles[id] & (roleS | roleO) {
		case roleS | roleO:
			shared = append(shared, id)
		case roleS:
			sOnly = append(sOnly, id)
		case roleO:
			oOnly = append(oOnly, id)
		}
		if roles[id]&roleP != 0 {
			preds = append(preds, id)
		}
	}

	nS, nO := len(shared)+len(sOnly), len(shared)+len(oOnly)
	d := &Dictionary{
		subjects:    make([]Term, 0, nS),
		objects:     make([]Term, 0, nO),
		predicates:  make([]Term, 0, len(preds)),
		subjectID:   make(map[string]ID, nS),
		objectID:    make(map[string]ID, nO),
		predicateID: make(map[string]ID, len(preds)),
		numSO:       len(shared),
	}
	rm := &Remap{s: make([]ID, n+1), p: make([]ID, n+1), o: make([]ID, n+1)}
	addS := func(id ID) {
		d.subjects = append(d.subjects, b.terms[id-1])
		rm.s[id] = ID(len(d.subjects))
		d.subjectID[keys[id]] = rm.s[id]
	}
	addO := func(id ID) {
		d.objects = append(d.objects, b.terms[id-1])
		rm.o[id] = ID(len(d.objects))
		d.objectID[keys[id]] = rm.o[id]
	}
	for _, id := range shared {
		addS(id)
		addO(id)
	}
	for _, id := range sOnly {
		addS(id)
	}
	for _, id := range oOnly {
		addO(id)
	}
	for _, id := range preds {
		d.predicates = append(d.predicates, b.terms[id-1])
		rm.p[id] = ID(len(d.predicates))
		d.predicateID[keys[id]] = rm.p[id]
	}
	for id := ID(1); int(id) <= n; id++ {
		if c := canon[id]; c != id {
			rm.s[id], rm.p[id], rm.o[id] = rm.s[c], rm.p[c], rm.o[c]
		}
	}
	return d, rm
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
