package bitmat

import (
	"repro/internal/bitvec"
	"repro/internal/rdf"
)

// Source is the read surface the engine materializes BitMats from. The
// compacted *Index implements it directly; *Overlay implements it by
// merging a delta of inserted and deleted triples over a base index at
// materialization time, so a query sees base ⊎ delta without a rebuild.
type Source interface {
	Dictionary() *rdf.Dictionary
	NumTriples() int64
	PredicateCardinality(p rdf.ID) int
	SubjectCardinality(s rdf.ID) int
	ObjectCardinality(o rdf.ID) int
	MatSO(p rdf.ID) *Matrix
	MatSOFiltered(p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix
	MatOS(p rdf.ID) *Matrix
	MatOSFiltered(p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix
	MatPS(o rdf.ID) *Matrix
	MatPO(s rdf.ID) *Matrix
	RowPS(p, o rdf.ID) *Matrix
	RowPO(p, s rdf.ID) *Matrix
	RowP(s, o rdf.ID) *Matrix
	Contains(s, p, o rdf.ID) bool
	SOPairs(p rdf.ID) []Pair
	OSPairs(p rdf.ID) []Pair
	SubjectPairs(s rdf.ID) []Pair
	ObjectPairs(o rdf.ID) []Pair
}

var (
	_ Source = (*Index)(nil)
	_ Source = (*Overlay)(nil)
)
