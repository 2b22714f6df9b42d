package rdf

import (
	"fmt"
	"slices"
	"strings"
)

// ID is an integer coordinate in one dimension of the bitcube. IDs start at
// 1; 0 is reserved as "absent". Subjects and objects share one ID space:
// a term that occurs as a subject, an object or both has one ID on both
// the S and the O dimension, so an S-O join is equality of bit positions.
// Predicates have their own space. (Appendix D of the paper numbers the
// two dimensions apart, with the shared terms in a common prefix; see the
// Dictionary doc for why this code does not.)
type ID uint32

// Dictionary maps terms to bitcube coordinates and back. Build one with
// NewDictionaryBuilder; a built Dictionary is immutable and safe for
// concurrent readers.
//
// Every term that occurs as a subject or an object gets one ID in the
// S/O space, in key order at build, and a term appended by Extend keeps
// its one ID whichever roles it gains later. Appendix D's layout, with
// the shared terms in a prefix of two separate spaces, is a property of
// the whole term set that a write cannot keep; condensed BitMats cost
// only their live rows, so the density that layout bought on the axes no
// longer pays for the translations it needs once data changes.
type Dictionary struct {
	// so[i-1] / predicates[i-1] hold the term with ID i in the S/O space
	// and the predicate space.
	so         []Term
	predicates []Term

	soID        map[string]ID
	predicateID map[string]ID
}

// NumSO returns the size of the S/O space: the terms that occur as a
// subject or an object.
func (d *Dictionary) NumSO() int { return len(d.so) }

// NumSubjects returns NumSO, the length of the S dimension. It and
// NumObjects and NumShared remain only for the benchmark module's
// dictionary probe (benchmark/probes.go).
func (d *Dictionary) NumSubjects() int { return len(d.so) }

// NumObjects returns NumSO, the length of the O dimension.
func (d *Dictionary) NumObjects() int { return len(d.so) }

// NumShared returns NumSO, the IDs the S and O dimensions share.
func (d *Dictionary) NumShared() int { return len(d.so) }

// NumPredicates returns |Vp|.
func (d *Dictionary) NumPredicates() int { return len(d.predicates) }

// SOID returns the S/O-space ID of t, or 0 if t occurs as neither a
// subject nor an object.
func (d *Dictionary) SOID(t Term) ID { return d.soID[t.Key()] }

// PredicateID returns the P-dimension ID of t, or 0 if t never occurs as a
// predicate.
func (d *Dictionary) PredicateID(t Term) ID { return d.predicateID[t.Key()] }

// SOTerm returns the term with S/O-space ID id.
func (d *Dictionary) SOTerm(id ID) (Term, error) {
	if id == 0 || int(id) > len(d.so) {
		return Term{}, fmt.Errorf("rdf: subject/object ID %d out of range [1,%d]", id, len(d.so))
	}
	return d.so[id-1], nil
}

// Predicate returns the term with P-dimension ID id.
func (d *Dictionary) Predicate(id ID) (Term, error) {
	if id == 0 || int(id) > len(d.predicates) {
		return Term{}, fmt.Errorf("rdf: predicate ID %d out of range [1,%d]", id, len(d.predicates))
	}
	return d.predicates[id-1], nil
}

// SOTerms and PredicateTerms return the S/O and the predicate space as
// tables: the term with ID i is at index i-1. The tables are the
// dictionary's own and must not be modified.
func (d *Dictionary) SOTerms() []Term        { return d.so }
func (d *Dictionary) PredicateTerms() []Term { return d.predicates }

// Role bits of an interned term: the ID spaces it occurs in.
const (
	roleSO uint8 = 1 << iota
	roleP
)

// DictionaryBuilder interns the terms of a graph as its triples arrive and
// assigns the coordinate layout on Build. Its one term table is keyed by
// the comparable Term value, so an occurrence costs a map lookup and no
// allocation. A term's strings are copied the first time it is seen, so
// the builder never keeps a caller's larger string (a scanned input line,
// say) alive.
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
	return IDTriple{S: b.intern(tr.S, roleSO), P: b.intern(tr.P, roleP), O: b.intern(tr.O, roleSO)}
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
// the Dictionary its Build returned, one table per ID space.
type Remap struct {
	so, p []ID // indexed by provisional ID; 0 where the term lacks the role
}

// Triple returns a provisional triple of the builder in coordinates.
func (r *Remap) Triple(pt IDTriple) IDTriple {
	return IDTriple{S: r.so[pt.S], P: r.p[pt.P], O: r.so[pt.O]}
}

// Build assigns IDs once per distinct term:
//
//	Vs ∪ Vo -> 1..|Vs ∪ Vo| on the S/O space,
//	Vp -> 1..|Vp| on the P dimension.
//
// Each space is ordered lexicographically by key so the assignment
// depends only on the term set. Terms with equal keys (Term values that
// differ only in fields their kind ignores) share one ID, as every
// key-based lookup would treat them. Build returns the dictionary and the
// provisional-to-final Remap.
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
	nSO, nP := 0, 0
	for i, id := range order {
		canon[id] = id
		if i > 0 && keys[id] == keys[order[i-1]] {
			canon[id] = canon[order[i-1]]
		}
		roles[canon[id]] |= b.roles[id-1]
	}
	for _, id := range order {
		if canon[id] != id {
			continue
		}
		if roles[id]&roleSO != 0 {
			nSO++
		}
		if roles[id]&roleP != 0 {
			nP++
		}
	}
	d := &Dictionary{
		so:          make([]Term, 0, nSO),
		predicates:  make([]Term, 0, nP),
		soID:        make(map[string]ID, nSO),
		predicateID: make(map[string]ID, nP),
	}
	rm := &Remap{so: make([]ID, n+1), p: make([]ID, n+1)}
	for _, id := range order {
		if c := canon[id]; c != id {
			rm.so[id], rm.p[id] = rm.so[c], rm.p[c]
			continue
		}
		if roles[id]&roleSO != 0 {
			d.so = append(d.so, b.terms[id-1])
			rm.so[id] = ID(len(d.so))
			d.soID[keys[id]] = rm.so[id]
		}
		if roles[id]&roleP != 0 {
			d.predicates = append(d.predicates, b.terms[id-1])
			rm.p[id] = ID(len(d.predicates))
			d.predicateID[keys[id]] = rm.p[id]
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
	s := d.SOID(tr.S)
	if s == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown subject %s", tr.S)
	}
	p := d.PredicateID(tr.P)
	if p == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown predicate %s", tr.P)
	}
	o := d.SOID(tr.O)
	if o == 0 {
		return IDTriple{}, fmt.Errorf("rdf: unknown object %s", tr.O)
	}
	return IDTriple{S: s, P: p, O: o}, nil
}

// Decode maps coordinates back to a term triple.
func (d *Dictionary) Decode(it IDTriple) (Triple, error) {
	s, err := d.SOTerm(it.S)
	if err != nil {
		return Triple{}, err
	}
	p, err := d.Predicate(it.P)
	if err != nil {
		return Triple{}, err
	}
	o, err := d.SOTerm(it.O)
	if err != nil {
		return Triple{}, err
	}
	return Triple{S: s, P: p, O: o}, nil
}
