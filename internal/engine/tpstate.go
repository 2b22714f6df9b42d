package engine

import (
	"fmt"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/planner"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// tpState is the query-time state of one triple pattern: its BitMat slice
// and the mapping from matrix axes to variables.
type tpState struct {
	idx int // global pattern index
	pat sparql.TriplePattern
	sn  int // supernode ID

	// mat holds the triples matching the pattern. One-variable patterns
	// use a 1 x N matrix whose single row spans the variable's dimension;
	// zero-variable patterns leave mat nil and use present.
	mat *bitmat.Matrix

	rowVar, colVar sparql.Var // "" when the axis carries no variable

	present bool // zero-variable patterns: whether the triple exists

	// trans caches the transpose for column-bound probes in the multi-way
	// join. It is built lazily after pruning (when the matrix is small), so
	// a probe against the non-row axis costs one row read instead of a
	// full-matrix scan. transOnce makes the build single-flight: parallel
	// join workers share tpStates and may probe the same pattern at once.
	trans     *bitmat.Matrix
	transOnce sync.Once

	// folds memoizes mat.Fold per axis (indexed by bitmat.Axis) until an
	// unfold changes the matrix: active pruning and the prune levels fold
	// the same unchanged patterns again and again. A memoized fold is
	// shared, so every caller treats it as read-only. foldCounts holds
	// each memoized fold's population beside it.
	folds      [2]*bitvec.Bits
	foldCounts [2]int
}

// transpose returns the cached transpose, building it on first use. Safe
// for concurrent callers.
func (t *tpState) transpose() *bitmat.Matrix {
	t.transOnce.Do(func() { t.trans = t.mat.Transpose() })
	return t.trans
}

// count returns the number of triples currently associated with the
// pattern.
func (t *tpState) count() int64 {
	if t.mat == nil {
		if t.present {
			return 1
		}
		return 0
	}
	return t.mat.Count()
}

// vars returns the axis variables in row, col order (skipping empty ones).
func (t *tpState) vars() []sparql.Var {
	var out []sparql.Var
	if t.rowVar != "" {
		out = append(out, t.rowVar)
	}
	if t.colVar != "" && t.colVar != t.rowVar {
		out = append(out, t.colVar)
	}
	return out
}

// EstimateCounts returns the exact number of index triples matching each
// pattern, counted from the index's pair lists without materializing
// BitMats (Section 4: the condensed per-BitMat metadata makes selectivity
// cheap). A pattern naming a term the dictionary lacks matches nothing.
func EstimateCounts(idx bitmat.Source, patterns []sparql.TriplePattern) []int64 {
	dict := idx.Dictionary()
	counts := make([]int64, len(patterns))
	for i, tp := range patterns {
		if s, p, o, ok := tp.IDs(dict); ok {
			counts[i] = bitmat.Count(idx, s, p, o)
		}
	}
	return counts
}

// loadMask computes the active-pruning mask for join variable v: the
// intersection of the v-projections of already loaded patterns that are
// masters or peers of pattern idx (Section 5: "while loading BMtp2, we use
// the bindings of ?friend in BMtp1 to actively prune the triples in BMtp2
// while loading it"). nil means no restriction.
func (e *Engine) loadMask(v sparql.Var, idx int, loaded []*tpState, plan *planner.Plan) *bitvec.Bits {
	if _, isJ := plan.GoJ.VarIdx[v]; !isJ {
		return nil
	}
	var acc *bitvec.Bits
	for _, prev := range loaded {
		if prev == nil || prev.mat == nil {
			continue
		}
		if !plan.GoSN.TPIsMasterOf(prev.idx, idx) && !plan.GoSN.TPArePeers(prev.idx, idx) {
			continue
		}
		f, ok := prev.foldVar(v)
		if !ok {
			continue
		}
		if acc == nil {
			acc = f.Clone()
			continue
		}
		acc = intersectFolds(acc, f)
	}
	return acc
}

// load materializes the BitMat for one pattern, choosing the orientation
// per the plan (Section 5's init rules) and applying active-pruning masks
// from the already loaded patterns. It returns an error for patterns with
// three variables, which the paper's system does not handle either.
//
// The engine's store-level MatCache view (e.mc), when non-nil, shares
// the pristine materialization of patterns across the queries of one
// index snapshot and across the UNF branches of one query: the shared
// matrix is built single-flight, cloned per load, and the load's masks
// are applied to the clone — bit-identical to building the filtered
// matrix directly, since both paths read out-of-range mask bits as 0.
//
// A masked S-O/O-S load served by the cache copies only the directory
// entries its row mask keeps (Matrix.CloneRows), then unfolds the
// columns of that clone in place.
//
// sp, when non-nil, is this pattern's load span: the cache outcome and
// (for cache-served loads, by cachedPristine) the cached matrix's live
// rows and the bytes cloned from it are recorded on it. A nil sp costs
// only nil checks.
func (e *Engine) load(tp sparql.TriplePattern, idx int, sn int, plan *planner.Plan, loaded []*tpState, sp *trace.Span) (*tpState, error) {
	st := &tpState{idx: idx, pat: tp, sn: sn}
	dict := e.dict
	sVar, pVar, oVar := tp.S.IsVar, tp.P.IsVar, tp.O.IsVar
	patKey := ""
	if e.mc != nil {
		patKey = tp.String()
	}
	cacheSrc := "none"

	// Resolve fixed positions. An unknown term resolves to ID 0, for which
	// every loader returns an empty matrix: the pattern matches nothing.
	s, p, o, known := tp.IDs(dict)

	switch {
	case sVar && !pVar && oVar:
		// (?a :p ?b): S-O or O-S BitMat of p, oriented by orderbu.
		if tp.S.Var == tp.O.Var {
			// Self join (?x :p ?x): the diagonal of the S-O BitMat,
			// reduced to a single row over the S/O space.
			st.colVar = tp.S.Var
			st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
				diag := bitmat.NewMatrix(1, dict.NumSO())
				var pos []uint32
				bitmat.MatSO(e.idx, p, nil, nil).ForEachRow(func(r int, row *bitvec.Row) bool {
					if row.Test(r) {
						pos = append(pos, uint32(r))
					}
					return true
				})
				if len(pos) > 0 {
					diag.SetRow(0, bitvec.RowFromSortedPositions(dict.NumSO(), pos))
				}
				return diag
			}, sp)
			setLoadAttrs(sp, st, cacheSrc)
			return st, nil
		}
		rowVar, _ := plan.RowVar(tp)
		st.rowVar, st.colVar = tp.S.Var, tp.O.Var
		if rowVar != tp.S.Var {
			st.rowVar, st.colVar = tp.O.Var, tp.S.Var
		}
		if !known {
			// Empty without computing masks or touching the cache.
			st.mat = bitmat.NewMatrix(dict.NumSO(), dict.NumSO())
			setLoadAttrs(sp, st, cacheSrc)
			return st, nil
		}
		var rowMask, colMask *bitvec.Bits
		if !e.opts.DisableActivePruning {
			rowMask = e.loadMask(st.rowVar, idx, loaded, plan)
			colMask = e.loadMask(st.colVar, idx, loaded, plan)
		}
		orient, build := orientSO, func() *bitmat.Matrix { return bitmat.MatSO(e.idx, p, nil, nil) }
		if rowVar != tp.S.Var {
			orient, build = orientOS, func() *bitmat.Matrix { return bitmat.MatOS(e.idx, p, nil, nil) }
		}
		st.mat, cacheSrc = e.cachedPristine(patKey, orient, rowMask, build, sp)
		if st.mat != nil {
			if colMask != nil {
				st.mat.UnfoldCols(colMask)
			}
		} else if rowVar == tp.S.Var {
			st.mat = bitmat.MatSO(e.idx, p, rowMask, colMask)
		} else {
			st.mat = bitmat.MatOS(e.idx, p, rowMask, colMask)
		}
	case sVar && !pVar && !oVar:
		// (?var :p :o): one row of the P-S BitMat of o (Section 5).
		st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
			return bitmat.RowPS(e.idx, p, o)
		}, sp)
		st.colVar = tp.S.Var
	case !sVar && !pVar && oVar:
		// (:s :p ?var): one row of the P-O BitMat of s.
		st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
			return bitmat.RowPO(e.idx, p, s)
		}, sp)
		st.colVar = tp.O.Var
	case !sVar && pVar && oVar:
		// (:s ?p ?o): the P-O BitMat of s; the predicate variable rides the
		// row axis (never a join variable, enforced by the GoJ).
		st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
			return bitmat.MatPO(e.idx, s)
		}, sp)
		st.rowVar, st.colVar = tp.P.Var, tp.O.Var
	case sVar && pVar && !oVar:
		// (?s ?p :o): the P-S BitMat of o.
		st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
			return bitmat.MatPS(e.idx, o)
		}, sp)
		st.rowVar, st.colVar = tp.P.Var, tp.S.Var
	case !sVar && pVar && !oVar:
		// (:s ?p :o): the predicates linking s to o.
		st.mat, cacheSrc = e.cachedOr(patKey, orientSO, func() *bitmat.Matrix {
			return bitmat.RowP(e.idx, s, o)
		}, sp)
		st.colVar = tp.P.Var
	case !sVar && !pVar && !oVar:
		st.present = e.idx.Contains(s, p, o)
	default:
		return nil, fmt.Errorf("%w: %s", ErrThreeVarPattern, tp)
	}
	setLoadAttrs(sp, st, cacheSrc)
	return st, nil
}

// setLoadAttrs records a pattern load's cache outcome on its trace span:
// whether the MatCache served it (or why it declined) and the live rows
// of the loaded BitMat. No-op (and no argument evaluation) on a nil span.
func setLoadAttrs(sp *trace.Span, st *tpState, src string) {
	if sp == nil {
		return
	}
	sp.Set("cache", src)
	if st.mat != nil {
		sp.Set("live_rows", st.mat.LiveRows())
	}
}

// axisOf returns the axis carrying variable v.
func (t *tpState) axisOf(v sparql.Var) (bitmat.Axis, bool) {
	if t.rowVar == v && t.rowVar != "" {
		return bitmat.Rows, true
	}
	if t.colVar == v && t.colVar != "" {
		return bitmat.Cols, true
	}
	return 0, false
}

// foldVar projects the bindings of v out of the pattern's matrix. The
// fold is memoized until the next unfoldVar; the caller must not modify
// it.
func (t *tpState) foldVar(v sparql.Var) (*bitvec.Bits, bool) {
	f, _, ok := t.foldVarCount(v)
	return f, ok
}

// foldVarCount is foldVar with the fold's population, memoized beside it.
func (t *tpState) foldVarCount(v sparql.Var) (*bitvec.Bits, int, bool) {
	axis, ok := t.axisOf(v)
	if !ok || t.mat == nil {
		return nil, 0, false
	}
	if t.folds[axis] == nil {
		t.folds[axis] = t.mat.Fold(axis)
		t.foldCounts[axis] = t.folds[axis].Count()
	}
	return t.folds[axis], t.foldCounts[axis], true
}

// unfoldVar masks the bindings of v in the pattern's matrix and drops the
// memoized folds. Axis positions past the end of the mask are treated as
// 0.
func (t *tpState) unfoldVar(v sparql.Var, mask *bitvec.Bits) {
	axis, ok := t.axisOf(v)
	if !ok || t.mat == nil {
		return
	}
	t.mat.Unfold(mask, axis)
	t.folds = [2]*bitvec.Bits{}
}
