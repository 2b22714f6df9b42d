package bitmat

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// parallelBuildMinTriples gates the parallel build: below it the
// fixed fan-out cost dominates the work and the sequential path wins. A
// var (not const) so tests can force the parallel path on small fixtures.
var parallelBuildMinTriples = 4096

// BuildParallel constructs the index with the given worker count: the
// dictionary via the sharded builder, then the four pair-table families
// with a count/scatter/sort pipeline that writes every slot exactly once.
// 0 workers means GOMAXPROCS, negative is treated as 1. Any worker count
// produces the same index — the dictionary assignment is a pure function
// of the term set, the scatter fills each per-ID bucket with the same
// pairs whatever the interleaving, and the final per-bucket sort makes the
// (unique) pair order canonical — so the persist format is byte-identical
// too.
func BuildParallel(g *rdf.Graph, workers int) (*Index, error) {
	return BuildTriples(g.Triples(), workers)
}

// BuildTriples is BuildParallel over a slice of distinct triples, for
// callers that hold the triples without a deduplicating rdf.Graph.
func BuildTriples(triples []rdf.Triple, workers int) (*Index, error) {
	workers = rdf.EffectiveWorkers(workers)
	if len(triples) < parallelBuildMinTriples {
		workers = 1
	}
	return BuildParallelWithDictionary(triples, rdf.BuildDictionaryParallel(triples, workers), workers)
}

// BuildParallelWithDictionary is the indexing half of BuildParallel over a
// pre-built (immutable) dictionary.
func BuildParallelWithDictionary(triples []rdf.Triple, dict *rdf.Dictionary, workers int) (*Index, error) {
	n := len(triples)
	if workers < 1 {
		workers = 1
	}

	// Phase 1: encode every triple to coordinates. Chunks write disjoint
	// ranges of ids; the first (lowest-index) error wins so the reported
	// failure matches the sequential build's.
	ids := make([]rdf.IDTriple, n)
	var errMu sync.Mutex
	errAt := n
	var firstErr error
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it, err := dict.Encode(triples[i])
			if err != nil {
				errMu.Lock()
				if i < errAt {
					errAt, firstErr = i, fmt.Errorf("bitmat: %w", err)
				}
				errMu.Unlock()
				return
			}
			ids[i] = it
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	nP, nS, nO := dict.NumPredicates(), dict.NumSubjects(), dict.NumObjects()
	idx := &Index{
		dict:      dict,
		soPairs:   make([][]Pair, nP),
		osPairs:   make([][]Pair, nP),
		bySubject: make([][]Pair, nS),
		byObject:  make([][]Pair, nO),
		nTriples:  int64(n),
	}

	// Phase 2: per-bucket occupancy counts (one atomic add per dimension
	// per triple), then exact-size allocations.
	predCnt := make([]uint32, nP)
	subCnt := make([]uint32, nS)
	objCnt := make([]uint32, nO)
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := ids[i]
			atomic.AddUint32(&predCnt[it.P-1], 1)
			atomic.AddUint32(&subCnt[it.S-1], 1)
			atomic.AddUint32(&objCnt[it.O-1], 1)
		}
	})
	parallelRanges(nP, workers, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			if c := predCnt[p]; c > 0 {
				idx.soPairs[p] = make([]Pair, c)
				idx.osPairs[p] = make([]Pair, c)
			}
		}
	})
	parallelRanges(nS, workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if c := subCnt[s]; c > 0 {
				idx.bySubject[s] = make([]Pair, c)
			}
		}
	})
	parallelRanges(nO, workers, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			if c := objCnt[o]; c > 0 {
				idx.byObject[o] = make([]Pair, c)
			}
		}
	})

	// Phase 3: scatter. Per-bucket atomic cursors reserve each slot for
	// exactly one writer, so the fill is lock-free and race-free; the slot
	// order within a bucket is scheduling-dependent, which phase 4 erases.
	predCur := make([]uint32, nP)
	subCur := make([]uint32, nS)
	objCur := make([]uint32, nO)
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := ids[i]
			p, s, o := it.P-1, uint32(it.S), uint32(it.O)
			k := atomic.AddUint32(&predCur[p], 1) - 1
			idx.soPairs[p][k] = Pair{A: s, B: o}
			idx.osPairs[p][k] = Pair{A: o, B: s}
			k = atomic.AddUint32(&subCur[it.S-1], 1) - 1
			idx.bySubject[it.S-1][k] = Pair{A: uint32(it.P), B: o}
			k = atomic.AddUint32(&objCur[it.O-1], 1) - 1
			idx.byObject[it.O-1][k] = Pair{A: uint32(it.P), B: s}
		}
	})

	// Phase 4: canonical (A,B) sort of every bucket. Triples are distinct,
	// so every bucket holds distinct pairs and the sorted content is
	// independent of the scatter interleaving above.
	buckets := make([][]Pair, 0, nP*2+nS+nO)
	for _, fam := range [][][]Pair{idx.soPairs, idx.osPairs, idx.bySubject, idx.byObject} {
		for _, l := range fam {
			if len(l) > 1 {
				buckets = append(buckets, l)
			}
		}
	}
	parallelRanges(len(buckets), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l := buckets[i]
			sort.Slice(l, func(a, b int) bool {
				if l[a].A != l[b].A {
					return l[a].A < l[b].A
				}
				return l[a].B < l[b].B
			})
		}
	})
	return idx, nil
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn on each concurrently, returning when all are done. With one
// worker (or a single-range n) it degenerates to an inline call.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
