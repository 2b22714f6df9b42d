package bitmat

import (
	"fmt"
	"sort"

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
	// (P,S) pairs sorted by (P,S). Both span the whole S/O space, so a
	// term without the role has an empty list.
	bySubject [][]Pair
	byObject  [][]Pair

	nTriples int64
}

// Dictionary returns the index's term dictionary.
func (idx *Index) Dictionary() *rdf.Dictionary { return idx.dict }

// Validate checks the structural invariants the persist format relies on:
// the pair-table shapes match the dictionary dimensions and the per-
// predicate tables account for exactly NumTriples pairs. Build and
// ReadIndex must satisfy it; SaveIndex asserts it before writing so a
// build-path bug cannot silently corrupt a snapshot.
func (idx *Index) Validate() error {
	if idx.dict == nil {
		return fmt.Errorf("bitmat: index has no dictionary")
	}
	if len(idx.soPairs) != idx.dict.NumPredicates() || len(idx.osPairs) != idx.dict.NumPredicates() {
		return fmt.Errorf("bitmat: predicate tables (%d,%d) do not match dictionary (%d predicates)",
			len(idx.soPairs), len(idx.osPairs), idx.dict.NumPredicates())
	}
	if len(idx.bySubject) != idx.dict.NumSO() || len(idx.byObject) != idx.dict.NumSO() {
		return fmt.Errorf("bitmat: postings (%d subjects, %d objects) do not match dictionary (%d S/O terms)",
			len(idx.bySubject), len(idx.byObject), idx.dict.NumSO())
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

// Stats counts the index the way Table 6.1 does. A term's roles are read
// off its postings: it is a subject when it has subject pairs and an
// object when it has object pairs.
func (idx *Index) Stats() rdf.Stats {
	st := rdf.Stats{Triples: int(idx.nTriples), Predicates: idx.dict.NumPredicates()}
	for i := range idx.bySubject {
		s, o := len(idx.bySubject[i]) > 0, len(idx.byObject[i]) > 0
		if s {
			st.Subjects++
		}
		if o {
			st.Objects++
		}
		if s && o {
			st.Shared++
		}
	}
	return st
}

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
			s, err := idx.dict.SOTerm(it.S)
			if err != nil {
				return err
			}
			o, err := idx.dict.SOTerm(it.O)
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

// MatSO is MatSO(idx, p, nil, nil). It and MatOS remain as methods only
// for the benchmark module's BitMat probes; everything else calls the
// package loaders over a Source.
func (idx *Index) MatSO(p rdf.ID) *Matrix { return MatSO(idx, p, nil, nil) }

// MatOS is MatOS(idx, p, nil, nil).
func (idx *Index) MatOS(p rdf.ID) *Matrix { return MatOS(idx, p, nil, nil) }

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

// Contains reports whether the exact triple (s p o) is indexed, the load
// path for triple patterns with no variables.
func (idx *Index) Contains(s, p, o rdf.ID) bool {
	if s == 0 || p == 0 || o == 0 || int(s) > len(idx.bySubject) {
		return false
	}
	for _, pr := range PairRange(idx.bySubject[s-1], uint32(p)) {
		if pr.B == uint32(o) {
			return true
		}
	}
	return false
}

// PairRange returns the sub-slice of pairs whose A field equals key,
// relying on the (A,B) sort order.
func PairRange(pairs []Pair, key uint32) []Pair {
	lo := sort.Search(len(pairs), func(i int) bool { return pairs[i].A >= key })
	hi := lo
	for hi < len(pairs) && pairs[hi].A == key {
		hi++
	}
	return pairs[lo:hi]
}
