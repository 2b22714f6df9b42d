package bitmat

import (
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// Overlay is a delta layer over a base Index: a normalized set of inserted
// and deleted triples applied at read time. It only merges pair lists: each
// Source accessor returns the base list with the delta folded in, and the
// package loaders build every matrix, row and count from those lists
// exactly as they do for a compacted index. The results are identical to
// what a freshly rebuilt index over base ⊎ delta would produce — modulo
// the coordinate system, which keeps the base dictionary's IDs and appends
// new terms past the end of each space (see rdf.Dictionary.Extend). A base
// term that the delta gives its second role keeps its one S/O ID, so an
// S-O join through it needs no translation.
//
// Invariants established by NewOverlay and relied on everywhere else:
// every inserted triple is absent from the base, every deleted triple is
// present in it, and the two sets are disjoint. That is what lets one
// linear merge produce each list.
type Overlay struct {
	base *Index
	dict *rdf.Dictionary // base dict extended with the delta's new terms

	insSet map[rdf.IDTriple]struct{}
	delSet map[rdf.IDTriple]struct{}

	// Delta pair lists in the same four sort orders the base keeps, grouped
	// by their owning key and (A,B)-sorted within each group.
	insSO, delSO map[rdf.ID][]Pair // per predicate: (S,O)
	insOS, delOS map[rdf.ID][]Pair // per predicate: (O,S)
	insPO, delPO map[rdf.ID][]Pair // per subject: (P,O)
	insPS, delPS map[rdf.ID][]Pair // per object: (P,S)

	nTriples int64

	// Merged views are built lazily, once per key, under mu. A merged list
	// is immutable after construction so Source calls can share it freely.
	mu       sync.Mutex
	mergedSO map[rdf.ID][]Pair
	mergedOS map[rdf.ID][]Pair
	mergedPO map[rdf.ID][]Pair
	mergedPS map[rdf.ID][]Pair
}

// NewOverlay builds the delta layer for a normalized update set: ins are
// triples to add that the base does not contain, del are triples to remove
// that it does contain. Both slices should be in a deterministic order
// (the store keeps them key-sorted) so the extended dictionary assigns the
// same IDs on every reconstruction of the same logical state.
func NewOverlay(base *Index, ins, del []rdf.Triple) (*Overlay, error) {
	dict := base.Dictionary().Extend(ins)
	ov := &Overlay{
		base:   base,
		dict:   dict,
		insSet: make(map[rdf.IDTriple]struct{}, len(ins)),
		delSet: make(map[rdf.IDTriple]struct{}, len(del)),
		insSO:  map[rdf.ID][]Pair{}, delSO: map[rdf.ID][]Pair{},
		insOS: map[rdf.ID][]Pair{}, delOS: map[rdf.ID][]Pair{},
		insPO: map[rdf.ID][]Pair{}, delPO: map[rdf.ID][]Pair{},
		insPS: map[rdf.ID][]Pair{}, delPS: map[rdf.ID][]Pair{},
	}
	for _, tr := range ins {
		it, err := dict.Encode(tr)
		if err != nil {
			return nil, fmt.Errorf("bitmat: overlay insert: %w", err)
		}
		if base.Contains(it.S, it.P, it.O) {
			return nil, fmt.Errorf("bitmat: overlay insert %v already in base", tr)
		}
		if _, dup := ov.insSet[it]; dup {
			return nil, fmt.Errorf("bitmat: duplicate overlay insert %v", tr)
		}
		ov.insSet[it] = struct{}{}
		ov.insSO[it.P] = append(ov.insSO[it.P], Pair{A: uint32(it.S), B: uint32(it.O)})
		ov.insOS[it.P] = append(ov.insOS[it.P], Pair{A: uint32(it.O), B: uint32(it.S)})
		ov.insPO[it.S] = append(ov.insPO[it.S], Pair{A: uint32(it.P), B: uint32(it.O)})
		ov.insPS[it.O] = append(ov.insPS[it.O], Pair{A: uint32(it.P), B: uint32(it.S)})
	}
	for _, tr := range del {
		it, err := dict.Encode(tr)
		if err != nil {
			return nil, fmt.Errorf("bitmat: overlay delete: %w", err)
		}
		if !base.Contains(it.S, it.P, it.O) {
			return nil, fmt.Errorf("bitmat: overlay delete %v not in base", tr)
		}
		if _, dup := ov.delSet[it]; dup {
			return nil, fmt.Errorf("bitmat: duplicate overlay delete %v", tr)
		}
		ov.delSet[it] = struct{}{}
		ov.delSO[it.P] = append(ov.delSO[it.P], Pair{A: uint32(it.S), B: uint32(it.O)})
		ov.delOS[it.P] = append(ov.delOS[it.P], Pair{A: uint32(it.O), B: uint32(it.S)})
		ov.delPO[it.S] = append(ov.delPO[it.S], Pair{A: uint32(it.P), B: uint32(it.O)})
		ov.delPS[it.O] = append(ov.delPS[it.O], Pair{A: uint32(it.P), B: uint32(it.S)})
	}
	for _, m := range []map[rdf.ID][]Pair{ov.insSO, ov.delSO, ov.insOS, ov.delOS, ov.insPO, ov.delPO, ov.insPS, ov.delPS} {
		for _, l := range m {
			sortPairs(l)
		}
	}
	ov.nTriples = base.NumTriples() + int64(len(ins)) - int64(len(del))
	return ov, nil
}

// DeltaSize reports the number of delta entries (inserts plus deletes).
func (ov *Overlay) DeltaSize() int { return len(ov.insSet) + len(ov.delSet) }

// Dictionary returns the extended dictionary covering base and delta terms.
func (ov *Overlay) Dictionary() *rdf.Dictionary { return ov.dict }

// NumTriples reports the merged triple count.
func (ov *Overlay) NumTriples() int64 { return ov.nTriples }

// mergePairs produces (base − del) ∪ ins in (A,B) order. All three inputs
// are (A,B)-sorted; del ⊆ base and ins ∩ base = ∅, which a single linear
// merge exploits. The result shares no backing with the inputs unless the
// delta for this key is empty, in which case the base list is returned
// as-is (it is immutable anyway).
func mergePairs(base, del, ins []Pair) []Pair {
	if len(del) == 0 && len(ins) == 0 {
		return base
	}
	out := make([]Pair, 0, len(base)-len(del)+len(ins))
	di, ii := 0, 0
	less := func(a, b Pair) bool {
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	}
	for _, pr := range base {
		if di < len(del) && del[di] == pr {
			di++
			continue
		}
		for ii < len(ins) && less(ins[ii], pr) {
			out = append(out, ins[ii])
			ii++
		}
		out = append(out, pr)
	}
	out = append(out, ins[ii:]...)
	return out
}

// merged returns the memoized merged list for key, building it on first use.
func (ov *Overlay) merged(cache *map[rdf.ID][]Pair, key rdf.ID, base []Pair, del, ins map[rdf.ID][]Pair) []Pair {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if *cache == nil {
		*cache = map[rdf.ID][]Pair{}
	}
	if l, ok := (*cache)[key]; ok {
		return l
	}
	l := mergePairs(base, del[key], ins[key])
	(*cache)[key] = l
	return l
}

// SOPairs returns the merged (S,O) pairs of predicate p, matching
// Index.SOPairs. The slice is shared; do not mutate it.
func (ov *Overlay) SOPairs(p rdf.ID) []Pair {
	if p == 0 || int(p) > ov.dict.NumPredicates() {
		return nil
	}
	return ov.merged(&ov.mergedSO, p, ov.base.SOPairs(p), ov.delSO, ov.insSO)
}

// OSPairs returns the merged (O,S) pairs of predicate p, matching
// Index.OSPairs. The slice is shared; do not mutate it.
func (ov *Overlay) OSPairs(p rdf.ID) []Pair {
	if p == 0 || int(p) > ov.dict.NumPredicates() {
		return nil
	}
	return ov.merged(&ov.mergedOS, p, ov.base.OSPairs(p), ov.delOS, ov.insOS)
}

// SubjectPairs returns the merged (P,O) pairs of subject s, matching
// Index.SubjectPairs. The slice is shared; do not mutate it.
func (ov *Overlay) SubjectPairs(s rdf.ID) []Pair {
	if s == 0 || int(s) > ov.dict.NumSO() {
		return nil
	}
	return ov.merged(&ov.mergedPO, s, ov.base.SubjectPairs(s), ov.delPO, ov.insPO)
}

// ObjectPairs returns the merged (P,S) pairs of object o, matching
// Index.ObjectPairs. The slice is shared; do not mutate it.
func (ov *Overlay) ObjectPairs(o rdf.ID) []Pair {
	if o == 0 || int(o) > ov.dict.NumSO() {
		return nil
	}
	return ov.merged(&ov.mergedPS, o, ov.base.ObjectPairs(o), ov.delPS, ov.insPS)
}

// Contains reports whether the merged view holds the exact triple (s p o).
func (ov *Overlay) Contains(s, p, o rdf.ID) bool {
	it := rdf.IDTriple{S: s, P: p, O: o}
	if _, ok := ov.insSet[it]; ok {
		return true
	}
	if _, ok := ov.delSet[it]; ok {
		return false
	}
	return ov.base.Contains(s, p, o)
}
