// Package engine executes well-designed BGP-OPT queries over the BitMat
// index: the init phase with active pruning, the semi-join and
// clustered-semi-join primitives built on fold/unfold (Algorithms 5.2 and
// 5.3), prune_triples (Algorithm 3.2), the recursive multi-way pipelined
// join (Algorithm 5.4), and the nullification and best-match operators for
// the cyclic cases that need them.
package engine

import (
	"repro/internal/rdf"
)

// Space identifies the ID space of a matrix axis or a binding: the one
// subject/object space of the bitcube, or the predicate dimension.
type Space uint8

const (
	// SpaceNone marks an absent axis (one-variable patterns use a single
	// row; the row axis carries no variable).
	SpaceNone Space = iota
	// SpaceSO is the subject/object space, shared by the S and O
	// dimensions.
	SpaceSO
	// SpaceP is the predicate dimension.
	SpaceP
)

func (s Space) String() string {
	switch s {
	case SpaceSO:
		return "SO"
	case SpaceP:
		return "P"
	}
	return "-"
}

// Binding is one variable binding in coordinate form. A term has one ID
// in its space, so equal bindings denote equal terms.
type Binding struct {
	Space Space
	ID    rdf.ID
}

// axisIndex converts a binding to a 0-based index on an axis of the given
// space. ok is false when the bound term cannot occur on that axis (a
// predicate probed against an S/O axis, or the reverse).
func axisIndex(b Binding, axis Space) (int, bool) {
	return int(b.ID) - 1, b.Space == axis
}

// term resolves a binding to its RDF term.
func (e *Engine) term(b Binding) (rdf.Term, error) {
	switch b.Space {
	case SpaceSO:
		return e.dict.SOTerm(b.ID)
	case SpaceP:
		return e.dict.Predicate(b.ID)
	}
	return rdf.Term{}, nil
}
