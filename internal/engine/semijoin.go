package engine

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/planner"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// intersectFolds ANDs two fold projections of a join variable. Join
// variables live in the subject/object space (the GoJ rejects a join on
// the predicate position), and subjects and objects share one ID space,
// so the folds intersect bit-wise whichever positions the variable holds.
func intersectFolds(a, b *bitvec.Bits) *bitvec.Bits {
	out := a.Clone()
	out.AndCompat(b)
	return out
}

// semiJoin implements Algorithm 5.2: tpj <semijoin on ?j> tpi. The bindings
// of ?j are projected out of both BitMats with fold, intersected, and the
// result unfolds tpj so that only triples whose ?j binding survives remain.
func (e *Engine) semiJoin(j sparql.Var, slave, master *tpState) {
	fm, ok := master.foldVar(j)
	if !ok {
		return
	}
	fs, n, ok := slave.foldVarCount(j)
	if !ok {
		return
	}
	// The intersection is a subset of the slave's own projection; an equal
	// population means the semi-join removes nothing, so it is counted
	// without being built, and built only for the unfold.
	if fm.AndCount(fs) == n {
		return
	}
	slave.unfoldVar(j, intersectFolds(fm, fs))
}

// clusteredSemiJoin implements Algorithm 5.3 over the patterns sharing ?j:
// the intersection of all their ?j projections unfolds every one of them.
func (e *Engine) clusteredSemiJoin(j sparql.Var, tps []*tpState) {
	if len(tps) < 2 {
		return
	}
	var beta *bitvec.Bits
	folds := make([]*bitvec.Bits, len(tps))
	counts := make([]int, len(tps))
	for i, st := range tps {
		f, n, ok := st.foldVarCount(j)
		if !ok {
			continue
		}
		folds[i], counts[i] = f, n
		if beta == nil {
			beta = f.Clone()
			continue
		}
		beta = intersectFolds(beta, f)
	}
	if beta == nil {
		return
	}
	betaCount := beta.Count()
	for i, st := range tps {
		if _, ok := st.axisOf(j); !ok {
			continue
		}
		// Skip the unfold when the intersection keeps every binding of
		// this pattern (identity mask).
		if folds[i] != nil && counts[i] == betaCount {
			continue
		}
		st.unfoldVar(j, beta)
	}
}

// pruneTriples implements Algorithm 3.2: one pass over orderbu and one over
// ordertd; at each join variable, first master-to-slave semi-joins, then
// clustered-semi-joins within each peer group (pruneLevel), all on the
// calling goroutine. A cancelled context stops the passes between
// jvar levels; the caller checks ctx.Err() afterwards, so a partial prune
// is never treated as a complete one.
//
// sp, when non-nil, is the branch's prune span: each jvar level becomes a
// "level" child recording the pass (bu/td), the variable, the triples
// held by its patterns before and after the level's semi-joins, and the
// level's wall time. The before/after counts cost a matrix count per
// holder, so they are computed only when tracing is on.
func (e *Engine) pruneTriples(ctx context.Context, plan *planner.Plan, tps []*tpState, sp *trace.Span) {
	holderCount := func(holders []int) int64 {
		var n int64
		for _, t := range holders {
			n += tps[t].count()
		}
		return n
	}
	pass := func(name string, order []int) {
		for _, jIdx := range order {
			if ctx.Err() != nil {
				return
			}
			j, holders := plan.GoJ.Vars[jIdx], plan.GoJ.TPsOfVar[jIdx]
			var lsp *trace.Span
			if sp != nil {
				lsp = sp.Child("level")
				lsp.Set("pass", name)
				lsp.Set("var", string(j))
				lsp.Set("patterns", len(holders))
				lsp.Set("before", holderCount(holders))
			}
			e.pruneLevel(j, holders, plan, tps)
			if lsp != nil {
				lsp.Set("after", holderCount(holders))
				lsp.End()
			}
		}
	}
	pass("bu", plan.OrderBU)
	pass("td", plan.OrderTD)
}

// pruneLevel runs one jvar level's pruning: master-slave semi-joins
// (Algorithm 3.2 lines 2-5 / 10-13), then clustered-semi-joins per peer
// class (lines 6-8 / 14-16).
func (e *Engine) pruneLevel(j sparql.Var, holders []int, plan *planner.Plan, tps []*tpState) {
	for _, ti := range holders {
		for _, tj := range holders {
			if ti != tj && plan.GoSN.TPIsMasterOf(ti, tj) {
				e.semiJoin(j, tps[tj], tps[ti])
			}
		}
	}
	seenClass := map[int]bool{}
	for _, t := range holders {
		sn := plan.GoSN.SNOfTP[t]
		class := plan.GoSN.Peers(sn)[0] // class representative
		if seenClass[class] {
			continue
		}
		seenClass[class] = true
		var group []*tpState
		for _, t2 := range holders {
			if plan.GoSN.ArePeers(plan.GoSN.SNOfTP[t2], sn) {
				group = append(group, tps[t2])
			}
		}
		e.clusteredSemiJoin(j, group)
	}
}
