package bitmat

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rdf"
)

// Build constructs the index for a graph.
func Build(g *rdf.Graph) (*Index, error) { return BuildTriples(g.Triples()) }

// BuildTriples is Build over a slice of distinct triples, for callers
// that hold the triples without a deduplicating rdf.Graph.
func BuildTriples(triples []rdf.Triple) (*Index, error) {
	return buildWithDictionary(triples, rdf.BuildDictionary(triples))
}

// BuildParallel is Build; the worker argument is ignored. It exists only
// for the benchmark module's build probe (benchmark/probes.go): ROADMAP
// item 12's benchmark-only change moves that probe to Build, and the
// change after it deletes this wrapper.
func BuildParallel(g *rdf.Graph, _ int) (*Index, error) { return Build(g) }

// buildWithDictionary indexes triples over a dictionary that covers their
// terms. It encodes every triple (failing on the first one, in order,
// that dict cannot encode), counts the pairs of every bucket, allocates
// each bucket at its exact size, fills the buckets in triple order, and
// sorts each by (A,B). Triples are distinct, so every bucket holds
// distinct pairs and the result depends only on the triple set.
func buildWithDictionary(triples []rdf.Triple, dict *rdf.Dictionary) (*Index, error) {
	ids := make([]rdf.IDTriple, len(triples))
	for i, tr := range triples {
		it, err := dict.Encode(tr)
		if err != nil {
			return nil, fmt.Errorf("bitmat: %w", err)
		}
		ids[i] = it
	}

	nP, nS, nO := dict.NumPredicates(), dict.NumSubjects(), dict.NumObjects()
	predCnt := make([]int, nP)
	subCnt := make([]int, nS)
	objCnt := make([]int, nO)
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
		idx.osPairs[p] = append(idx.osPairs[p], Pair{A: o, B: s})
		idx.bySubject[it.S-1] = append(idx.bySubject[it.S-1], Pair{A: uint32(it.P), B: o})
		idx.byObject[it.O-1] = append(idx.byObject[it.O-1], Pair{A: uint32(it.P), B: s})
	}
	for _, fam := range [][][]Pair{idx.soPairs, idx.osPairs, idx.bySubject, idx.byObject} {
		for _, l := range fam {
			sortPairs(l)
		}
	}
	return idx, nil
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
