package bitmat

import (
	"cmp"
	"slices"

	"repro/internal/rdf"
)

// Build constructs the index for a graph.
func Build(g *rdf.Graph) (*Index, error) { return BuildTriples(g.Triples()) }

// BuildTriples is Build over a slice of triples, for callers that hold
// the triples without an rdf.Graph. Duplicates collapse: the index holds
// each distinct triple once.
func BuildTriples(triples []rdf.Triple) (*Index, error) {
	b := NewBuilder()
	for _, tr := range triples {
		b.Add(tr)
	}
	return b.Build(), nil
}

// BuildParallel is Build; the worker argument is ignored. It exists only
// for the benchmark module's build probe (benchmark/probes.go): ROADMAP
// item 12's benchmark-only change moves that probe to Build, and the
// change after it deletes this wrapper.
func BuildParallel(g *rdf.Graph, _ int) (*Index, error) { return Build(g) }

// Builder accumulates the triples of one index. Add interns each triple's
// terms in an rdf.DictionaryBuilder and keeps the triple as provisional
// IDs, so a term occurrence costs one map lookup; Build assigns the
// key-ordered S/O and P spaces once per distinct term and indexes the
// remapped triples. Duplicate triples may be added: they collapse on Build.
type Builder struct {
	dict *rdf.DictionaryBuilder
	ids  []rdf.IDTriple // provisional, in Add order
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{dict: rdf.NewDictionaryBuilder()} }

// Add records one triple.
func (b *Builder) Add(tr rdf.Triple) { b.ids = append(b.ids, b.dict.Add(tr)) }

// Triples returns the triples added so far, in Add order, duplicates
// included.
func (b *Builder) Triples() []rdf.Triple {
	out := make([]rdf.Triple, len(b.ids))
	for i, it := range b.ids {
		out[i] = rdf.Triple{S: b.dict.Term(it.S), P: b.dict.Term(it.P), O: b.dict.Term(it.O)}
	}
	return out
}

// Build returns the index of the distinct triples added. It consumes the
// builder: the provisional triples are remapped in place.
//
// The remapped triples are sorted by (P,S,O) and deduplicated; filling
// the buckets in that order leaves every S-O table and every subject and
// object posting list sorted, and walking the object postings in object
// order fills the O-S tables sorted too. Each bucket is allocated at its
// exact size, so the result depends only on the triple set.
func (b *Builder) Build() *Index {
	dict, remap := b.dict.Build()
	ids := b.ids
	b.ids = nil
	for i, pt := range ids {
		ids[i] = remap.Triple(pt)
	}
	slices.SortFunc(ids, func(x, y rdf.IDTriple) int {
		if c := cmp.Compare(x.P, y.P); c != 0 {
			return c
		}
		if c := cmp.Compare(x.S, y.S); c != 0 {
			return c
		}
		return cmp.Compare(x.O, y.O)
	})
	ids = slices.Compact(ids)

	predCnt := make([]int, dict.NumPredicates())
	subCnt := make([]int, dict.NumSO())
	objCnt := make([]int, dict.NumSO())
	for _, it := range ids {
		predCnt[it.P-1]++
		subCnt[it.S-1]++
		objCnt[it.O-1]++
	}
	idx := &Index{
		dict:      dict,
		soPairs:   exactBuckets(predCnt),
		osPairs:   exactBuckets(predCnt),
		bySubject: exactBuckets(subCnt),
		byObject:  exactBuckets(objCnt),
		nTriples:  int64(len(ids)),
	}
	for _, it := range ids {
		p, s, o := it.P-1, uint32(it.S), uint32(it.O)
		idx.soPairs[p] = append(idx.soPairs[p], Pair{A: s, B: o})
		idx.bySubject[it.S-1] = append(idx.bySubject[it.S-1], Pair{A: uint32(it.P), B: o})
		idx.byObject[it.O-1] = append(idx.byObject[it.O-1], Pair{A: uint32(it.P), B: s})
	}
	for o, l := range idx.byObject {
		for _, ps := range l {
			idx.osPairs[ps.A-1] = append(idx.osPairs[ps.A-1], Pair{A: uint32(o + 1), B: ps.B})
		}
	}
	return idx
}

// exactBuckets returns one empty bucket per count, each with capacity
// for exactly its count of pairs (nil when the count is zero).
func exactBuckets(counts []int) [][]Pair {
	buckets := make([][]Pair, len(counts))
	for i, c := range counts {
		if c > 0 {
			buckets[i] = make([]Pair, 0, c)
		}
	}
	return buckets
}

// sortPairs sorts a bucket by (A,B), the order every pair table keeps.
func sortPairs(l []Pair) {
	slices.SortFunc(l, func(x, y Pair) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}
