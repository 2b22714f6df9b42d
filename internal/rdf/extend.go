package rdf

import "maps"

// Extend returns a new dictionary covering the base term universe plus
// every term of triples, preserving all existing IDs: unseen terms are
// appended past the end of their space in first-occurrence order. A base
// term that gains its second role (an object becoming a subject, say)
// keeps its one S/O ID. The receiver is not modified, so snapshots
// holding it stay valid. The assignment is a pure function of (receiver,
// triples sequence), which is what lets a replayed delta reproduce the
// exact coordinates of the original run.
func (d *Dictionary) Extend(triples []Triple) *Dictionary {
	nd := &Dictionary{
		so:          append(make([]Term, 0, len(d.so)), d.so...),
		predicates:  append(make([]Term, 0, len(d.predicates)), d.predicates...),
		soID:        maps.Clone(d.soID),
		predicateID: maps.Clone(d.predicateID),
	}
	add := func(terms *[]Term, ids map[string]ID, t Term) {
		k := t.Key()
		if _, ok := ids[k]; !ok {
			*terms = append(*terms, t)
			ids[k] = ID(len(*terms))
		}
	}
	for _, tr := range triples {
		add(&nd.so, nd.soID, tr.S)
		add(&nd.predicates, nd.predicateID, tr.P)
		add(&nd.so, nd.soID, tr.O)
	}
	return nd
}
