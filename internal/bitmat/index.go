package bitmat

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/rdf"
)

// Index is the full BitMat index of one RDF graph. It keeps, per predicate,
// the triple pairs in both (S,O) and (O,S) sort orders, and per subject /
// per object the posting lists that back the P-O and P-S BitMat families.
// Query-time matrices are materialized on demand from these postings: that
// materialization is the analogue of the paper's "load the BitMats
// associated with the triple patterns" (the Tinit phase) and is what the
// engine measures as init time.
type Index struct {
	dict *rdf.Dictionary

	// soPairs[p-1] holds the (S,O) pairs of predicate p sorted by (S,O);
	// osPairs[p-1] the (O,S) pairs sorted by (O,S).
	soPairs [][]Pair
	osPairs [][]Pair

	// bySubject[s-1] holds (P,O) pairs sorted by (P,O); byObject[o-1] holds
	// (P,S) pairs sorted by (P,S).
	bySubject [][]Pair
	byObject  [][]Pair

	nTriples int64
}

// Build constructs the index for a graph sequentially: BuildParallel
// with one worker.
func Build(g *rdf.Graph) (*Index, error) { return BuildTriples(g.Triples(), 1) }

// Dictionary returns the index's term dictionary.
func (idx *Index) Dictionary() *rdf.Dictionary { return idx.dict }

// Validate checks the structural invariants the persist format relies on:
// the pair-table shapes match the dictionary dimensions and the per-
// predicate tables account for exactly NumTriples pairs. Both the
// sequential and the parallel build must satisfy it; SaveIndex asserts it
// before writing so a build-path bug cannot silently corrupt a snapshot.
func (idx *Index) Validate() error {
	if idx.dict == nil {
		return fmt.Errorf("bitmat: index has no dictionary")
	}
	if len(idx.soPairs) != idx.dict.NumPredicates() || len(idx.osPairs) != idx.dict.NumPredicates() {
		return fmt.Errorf("bitmat: predicate tables (%d,%d) do not match dictionary (%d predicates)",
			len(idx.soPairs), len(idx.osPairs), idx.dict.NumPredicates())
	}
	if len(idx.bySubject) != idx.dict.NumSubjects() {
		return fmt.Errorf("bitmat: subject postings (%d) do not match dictionary (%d subjects)",
			len(idx.bySubject), idx.dict.NumSubjects())
	}
	if len(idx.byObject) != idx.dict.NumObjects() {
		return fmt.Errorf("bitmat: object postings (%d) do not match dictionary (%d objects)",
			len(idx.byObject), idx.dict.NumObjects())
	}
	var total int64
	for p, pairs := range idx.soPairs {
		if len(pairs) != len(idx.osPairs[p]) {
			return fmt.Errorf("bitmat: predicate %d has %d S-O pairs but %d O-S pairs", p+1, len(pairs), len(idx.osPairs[p]))
		}
		total += int64(len(pairs))
	}
	if total != idx.nTriples {
		return fmt.Errorf("bitmat: pair tables hold %d triples, header says %d", total, idx.nTriples)
	}
	return nil
}

// NumTriples reports the number of indexed triples.
func (idx *Index) NumTriples() int64 { return idx.nTriples }

// ForEachTriple calls fn with every indexed triple, as its coordinates
// and decoded back into terms, in index order: by predicate ID, then by
// (S,O). It stops early when fn returns false.
func (idx *Index) ForEachTriple(fn func(rdf.IDTriple, rdf.Triple) bool) error {
	for p, pairs := range idx.soPairs {
		pid := rdf.ID(p + 1)
		pred, err := idx.dict.Predicate(pid)
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			it := rdf.IDTriple{S: rdf.ID(pr.A), P: pid, O: rdf.ID(pr.B)}
			s, err := idx.dict.Subject(it.S)
			if err != nil {
				return err
			}
			o, err := idx.dict.Object(it.O)
			if err != nil {
				return err
			}
			if !fn(it, rdf.Triple{S: s, P: pred, O: o}) {
				return nil
			}
		}
	}
	return nil
}

// PredicateCardinality returns the number of triples with predicate p,
// which is the selectivity statistic of a (?a :p ?b) pattern.
func (idx *Index) PredicateCardinality(p rdf.ID) int {
	if p == 0 || int(p) > len(idx.soPairs) {
		return 0
	}
	return len(idx.soPairs[p-1])
}

// SubjectCardinality returns the number of triples with subject s.
func (idx *Index) SubjectCardinality(s rdf.ID) int {
	if s == 0 || int(s) > len(idx.bySubject) {
		return 0
	}
	return len(idx.bySubject[s-1])
}

// ObjectCardinality returns the number of triples with object o.
func (idx *Index) ObjectCardinality(o rdf.ID) int {
	if o == 0 || int(o) > len(idx.byObject) {
		return 0
	}
	return len(idx.byObject[o-1])
}

// MatSO materializes the S-O BitMat of predicate p: rows are subject IDs,
// columns object IDs.
func (idx *Index) MatSO(p rdf.ID) *Matrix {
	return idx.MatSOFiltered(p, nil, nil)
}

// MatSOFiltered materializes the S-O BitMat of predicate p keeping only
// pairs whose row (subject) and column (object) bits are set in the
// respective masks; a nil mask means no restriction. This is the paper's
// "active pruning while loading": selective bindings from already-loaded
// patterns skip most of the BitMat before it is ever built.
func (idx *Index) MatSOFiltered(p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix {
	if p == 0 || int(p) > len(idx.soPairs) {
		return NewMatrix(idx.dict.NumSubjects(), idx.dict.NumObjects())
	}
	return matrixFromSortedPairsFiltered(idx.dict.NumSubjects(), idx.dict.NumObjects(), idx.soPairs[p-1], rowMask, colMask)
}

// MatOS materializes the O-S BitMat of predicate p (the transpose of
// MatSO): rows are object IDs, columns subject IDs.
func (idx *Index) MatOS(p rdf.ID) *Matrix {
	return idx.MatOSFiltered(p, nil, nil)
}

// MatOSFiltered is MatOS with load-time row/column masks.
func (idx *Index) MatOSFiltered(p rdf.ID, rowMask, colMask *bitvec.Bits) *Matrix {
	if p == 0 || int(p) > len(idx.osPairs) {
		return NewMatrix(idx.dict.NumObjects(), idx.dict.NumSubjects())
	}
	return matrixFromSortedPairsFiltered(idx.dict.NumObjects(), idx.dict.NumSubjects(), idx.osPairs[p-1], rowMask, colMask)
}

// MatPS materializes the P-S BitMat of object o: rows are predicate IDs,
// columns subject IDs.
func (idx *Index) MatPS(o rdf.ID) *Matrix {
	if o == 0 || int(o) > len(idx.byObject) {
		return NewMatrix(idx.dict.NumPredicates(), idx.dict.NumSubjects())
	}
	return matrixFromSortedPairs(idx.dict.NumPredicates(), idx.dict.NumSubjects(), idx.byObject[o-1])
}

// MatPO materializes the P-O BitMat of subject s: rows are predicate IDs,
// columns object IDs.
func (idx *Index) MatPO(s rdf.ID) *Matrix {
	if s == 0 || int(s) > len(idx.bySubject) {
		return NewMatrix(idx.dict.NumPredicates(), idx.dict.NumObjects())
	}
	return matrixFromSortedPairs(idx.dict.NumPredicates(), idx.dict.NumObjects(), idx.bySubject[s-1])
}

// RowPS returns the single row of the P-S BitMat of object o for predicate
// p: the subjects S with (S p o), as a 1 x |Vs| matrix. This is the load
// path for triple patterns of the form (?var :p :o).
func (idx *Index) RowPS(p, o rdf.ID) *Matrix {
	m := NewMatrix(1, idx.dict.NumSubjects())
	if o == 0 || int(o) > len(idx.byObject) || p == 0 {
		return m
	}
	var pos []uint32
	for _, pr := range pairRange(idx.byObject[o-1], uint32(p)) {
		pos = append(pos, pr.B-1)
	}
	if len(pos) > 0 {
		// pairRange walks the (A,B)-sorted postings, so B is ascending.
		m.SetRow(0, bitvec.RowFromSortedPositions(idx.dict.NumSubjects(), pos))
	}
	return m
}

// RowPO returns the single row of the P-O BitMat of subject s for predicate
// p: the objects O with (s p O), as a 1 x |Vo| matrix. This is the load path
// for triple patterns of the form (:s :p ?var).
func (idx *Index) RowPO(p, s rdf.ID) *Matrix {
	m := NewMatrix(1, idx.dict.NumObjects())
	if s == 0 || int(s) > len(idx.bySubject) || p == 0 {
		return m
	}
	var pos []uint32
	for _, pr := range pairRange(idx.bySubject[s-1], uint32(p)) {
		pos = append(pos, pr.B-1)
	}
	if len(pos) > 0 {
		// pairRange walks the (A,B)-sorted postings, so B is ascending.
		m.SetRow(0, bitvec.RowFromSortedPositions(idx.dict.NumObjects(), pos))
	}
	return m
}

// SOPairs returns predicate p's (subject, object) pairs sorted by (S,O).
// The slice is shared; callers must not mutate it. This is the "predicate
// table ordered on S-O" view the relational baseline scans.
func (idx *Index) SOPairs(p rdf.ID) []Pair {
	if p == 0 || int(p) > len(idx.soPairs) {
		return nil
	}
	return idx.soPairs[p-1]
}

// OSPairs returns predicate p's (object, subject) pairs sorted by (O,S),
// the baseline's O-S index.
func (idx *Index) OSPairs(p rdf.ID) []Pair {
	if p == 0 || int(p) > len(idx.osPairs) {
		return nil
	}
	return idx.osPairs[p-1]
}

// SubjectPairs returns subject s's (predicate, object) pairs sorted by
// (P,O).
func (idx *Index) SubjectPairs(s rdf.ID) []Pair {
	if s == 0 || int(s) > len(idx.bySubject) {
		return nil
	}
	return idx.bySubject[s-1]
}

// ObjectPairs returns object o's (predicate, subject) pairs sorted by
// (P,S).
func (idx *Index) ObjectPairs(o rdf.ID) []Pair {
	if o == 0 || int(o) > len(idx.byObject) {
		return nil
	}
	return idx.byObject[o-1]
}

// PairRange returns the sub-slice of pairs whose A field equals key,
// relying on the (A,B) sort order.
func PairRange(pairs []Pair, key uint32) []Pair {
	return pairRange(pairs, key)
}

// RowP returns the predicates linking subject s to object o as a 1 x |Vp|
// matrix, the load path for triple patterns of the form (:s ?var :o).
func (idx *Index) RowP(s, o rdf.ID) *Matrix {
	m := NewMatrix(1, idx.dict.NumPredicates())
	if s == 0 || int(s) > len(idx.bySubject) || o == 0 {
		return m
	}
	var pos []uint32
	for _, pr := range idx.bySubject[s-1] {
		if pr.B == uint32(o) {
			pos = append(pos, pr.A-1)
		}
	}
	if len(pos) > 0 {
		// bySubject is (P,O)-sorted and duplicate-free: filtering on one
		// object keeps the predicate positions strictly ascending.
		m.SetRow(0, bitvec.RowFromSortedPositions(idx.dict.NumPredicates(), pos))
	}
	return m
}

// Contains reports whether the exact triple (s p o) is indexed, the load
// path for triple patterns with no variables.
func (idx *Index) Contains(s, p, o rdf.ID) bool {
	if s == 0 || p == 0 || o == 0 || int(s) > len(idx.bySubject) {
		return false
	}
	for _, pr := range pairRange(idx.bySubject[s-1], uint32(p)) {
		if pr.B == uint32(o) {
			return true
		}
	}
	return false
}

// pairRange returns the slice of pairs whose A field equals key, relying on
// the (A,B) sort order.
func pairRange(pairs []Pair, key uint32) []Pair {
	lo := sort.Search(len(pairs), func(i int) bool { return pairs[i].A >= key })
	hi := lo
	for hi < len(pairs) && pairs[hi].A == key {
		hi++
	}
	return pairs[lo:hi]
}
