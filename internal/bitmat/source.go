package bitmat

import (
	"repro/internal/bitvec"
	"repro/internal/rdf"
)

// Source is the read surface of one index snapshot: the dictionary, the
// triple count, and the four (A,B)-sorted pair lists of Section 4's BitMat
// families, plus exact membership. The compacted *Index serves its own
// lists; *Overlay merges a delta of inserted and deleted triples into the
// base lists, so a query sees base ⊎ delta without a rebuild. Every BitMat
// and every pattern count is derived from this surface by the loaders
// below, once for both snapshots.
//
// The pair accessors return nil for an ID of 0 or past the end of its
// dimension; the returned slices are shared and must not be mutated.
type Source interface {
	Dictionary() *rdf.Dictionary
	NumTriples() int64
	// SOPairs returns predicate p's (S,O) pairs sorted by (S,O).
	SOPairs(p rdf.ID) []Pair
	// OSPairs returns predicate p's (O,S) pairs sorted by (O,S).
	OSPairs(p rdf.ID) []Pair
	// SubjectPairs returns subject s's (P,O) pairs sorted by (P,O).
	SubjectPairs(s rdf.ID) []Pair
	// ObjectPairs returns object o's (P,S) pairs sorted by (P,S).
	ObjectPairs(o rdf.ID) []Pair
	// Contains reports whether the exact triple (s p o) is present; it is
	// false when any ID is 0.
	Contains(s, p, o rdf.ID) bool
}

var (
	_ Source = (*Index)(nil)
	_ Source = (*Overlay)(nil)
)

// The loaders below take the IDs of a pattern's fixed positions. An ID of
// 0 (a term the dictionary lacks) or past the end of its dimension selects
// no pairs, so the loader returns an empty matrix of its shape.

// MatSO materializes the S-O BitMat of predicate p: rows are subject IDs,
// columns object IDs. Only pairs whose row (subject) and column (object)
// bits are set in the respective masks are kept; a nil mask means no
// restriction. This is the paper's "active pruning while loading":
// selective bindings from already-loaded patterns skip most of the BitMat
// before it is ever built. Masks shorter than the dimension are fine: bits
// beyond a mask's length read as clear, which excludes terms an overlay
// appended that the caller never bound.
func MatSO(src Source, p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix {
	d := src.Dictionary()
	return matrixFromSortedPairsFiltered(d.NumSO(), d.NumSO(), src.SOPairs(p), rowMask, colMask)
}

// MatOS materializes the O-S BitMat of predicate p (the transpose of
// MatSO): rows are object IDs, columns subject IDs. Masks are as in MatSO.
func MatOS(src Source, p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix {
	d := src.Dictionary()
	return matrixFromSortedPairsFiltered(d.NumSO(), d.NumSO(), src.OSPairs(p), rowMask, colMask)
}

// MatPS materializes the P-S BitMat of object o: rows are predicate IDs,
// columns subject IDs.
func MatPS(src Source, o rdf.ID) *Matrix {
	d := src.Dictionary()
	return matrixFromSortedPairs(d.NumPredicates(), d.NumSO(), src.ObjectPairs(o))
}

// MatPO materializes the P-O BitMat of subject s: rows are predicate IDs,
// columns object IDs.
func MatPO(src Source, s rdf.ID) *Matrix {
	d := src.Dictionary()
	return matrixFromSortedPairs(d.NumPredicates(), d.NumSO(), src.SubjectPairs(s))
}

// RowPS returns the single row of the P-S BitMat of object o for predicate
// p: the subjects S with (S p o), as a 1 x |Vso| matrix. This is the load
// path for triple patterns of the form (?var :p :o).
func RowPS(src Source, p, o rdf.ID) *Matrix {
	return rowOf(src.Dictionary().NumSO(), PairRange(src.ObjectPairs(o), uint32(p)))
}

// RowPO returns the single row of the P-O BitMat of subject s for predicate
// p: the objects O with (s p O), as a 1 x |Vso| matrix. This is the load path
// for triple patterns of the form (:s :p ?var).
func RowPO(src Source, p, s rdf.ID) *Matrix {
	return rowOf(src.Dictionary().NumSO(), PairRange(src.SubjectPairs(s), uint32(p)))
}

// RowP returns the predicates linking subject s to object o as a 1 x |Vp|
// matrix, the load path for triple patterns of the form (:s ?var :o).
func RowP(src Source, s, o rdf.ID) *Matrix {
	m := NewMatrix(1, src.Dictionary().NumPredicates())
	var pos []uint32
	for _, pr := range src.SubjectPairs(s) {
		if pr.B == uint32(o) {
			pos = append(pos, pr.A-1)
		}
	}
	if len(pos) > 0 {
		// Subject pairs are (P,O)-sorted and duplicate-free: filtering on
		// one object keeps the predicate positions strictly ascending.
		m.SetRow(0, bitvec.RowFromSortedPositions(m.NCols(), pos))
	}
	return m
}

// rowOf builds the 1 x n matrix whose row holds the B field of each pair.
// The pairs share one A, so their B fields are strictly ascending.
func rowOf(n int, pairs []Pair) *Matrix {
	m := NewMatrix(1, n)
	if len(pairs) == 0 {
		return m
	}
	pos := make([]uint32, len(pairs))
	for i, pr := range pairs {
		pos[i] = pr.B - 1
	}
	m.SetRow(0, bitvec.RowFromSortedPositions(n, pos))
	return m
}

// Count returns the exact number of triples matching the pattern (s p o),
// where 0 marks a variable position, without materializing a BitMat: the
// length of the pair list that backs the pattern's loader, or of its run
// for the key bound in second position. An ID past the end of its
// dimension matches nothing.
func Count(src Source, s, p, o rdf.ID) int64 {
	switch {
	case s == 0 && p == 0 && o == 0:
		return src.NumTriples()
	case s == 0 && o == 0:
		return int64(len(src.SOPairs(p)))
	case p == 0 && o == 0:
		return int64(len(src.SubjectPairs(s)))
	case s == 0 && p == 0:
		return int64(len(src.ObjectPairs(o)))
	case o == 0:
		return int64(len(PairRange(src.SubjectPairs(s), uint32(p))))
	case s == 0:
		return int64(len(PairRange(src.ObjectPairs(o), uint32(p))))
	case p == 0:
		var n int64
		for _, pr := range src.SubjectPairs(s) {
			if pr.B == uint32(o) {
				n++
			}
		}
		return n
	default:
		if src.Contains(s, p, o) {
			return 1
		}
		return 0
	}
}
