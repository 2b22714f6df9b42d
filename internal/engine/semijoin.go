package engine

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/planner"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// intersectFolds ANDs two fold projections that may live in different ID
// spaces. Folds over the same space intersect bit-wise; an S-dimension fold
// against an O-dimension fold can only match on terms with both roles —
// the shared band, where Appendix D's common S-O identifier assignment
// makes that a prefix AND, plus any extension pairs an overlay dictionary
// carries. The mixed result is always expressed in the S dimension.
func (e *Engine) intersectFolds(a *bitvec.Bits, aSpace Space, b *bitvec.Bits, bSpace Space) *bitvec.Bits {
	if aSpace == bSpace {
		out := a.Clone()
		out.AndCompat(b)
		return out
	}
	mixedSO := (aSpace == SpaceS && bSpace == SpaceO) || (aSpace == SpaceO && bSpace == SpaceS)
	if !mixedSO {
		// P never joins S or O (enforced by the GoJ); empty intersection.
		return bitvec.NewBits(0)
	}
	if len(e.dict.ExtSharedPairs()) == 0 {
		shared := e.dict.NumShared()
		out := bitvec.NewBits(shared)
		out.SetAll()
		out.AndCompat(a)
		out.AndCompat(b)
		return out
	}
	out := e.foldToSubjects(a, aSpace)
	out.AndCompat(e.foldToSubjects(b, bSpace))
	return out
}

// foldToSubjects re-expresses an S- or O-dimension fold on the S dimension,
// keeping only terms that have a subject role: an S fold is zero-extended
// to |Vs|, an O fold keeps its shared-band prefix in place and scatters
// extension-pair bits to their subject positions. Bits for terms without a
// subject role are dropped, which is exactly what a mixed S/O intersection
// requires.
func (e *Engine) foldToSubjects(f *bitvec.Bits, space Space) *bitvec.Bits {
	ns := e.dict.NumSubjects()
	out := bitvec.NewBits(ns)
	if space == SpaceS {
		out.SetAll()
		out.AndCompat(f)
		return out
	}
	shared := e.dict.NumShared()
	f.ForEach(func(i int) bool {
		if i >= shared {
			return false
		}
		out.Set(i)
		return true
	})
	for _, pr := range e.dict.ExtSharedPairs() {
		if f.Test(int(pr.O) - 1) {
			out.Set(int(pr.S) - 1)
		}
	}
	return out
}

// semiJoin implements Algorithm 5.2: tpj <semijoin on ?j> tpi. The bindings
// of ?j are projected out of both BitMats with fold, intersected, and the
// result unfolds tpj so that only triples whose ?j binding survives remain.
func (e *Engine) semiJoin(j sparql.Var, slave, master *tpState) {
	fm, ms, ok := master.foldVar(j)
	if !ok {
		return
	}
	fs, ss, ok := slave.foldVar(j)
	if !ok {
		return
	}
	beta := e.intersectFolds(fm, ms, fs, ss)
	betaSpace := ms
	if ms != ss {
		betaSpace = SpaceS // mixed S/O intersections are expressed on the S dimension
	}
	// beta is a subset of the slave's own projection; an equal population
	// means the semi-join removes nothing, so the unfold can be skipped.
	if beta.Count() == fs.Count() {
		return
	}
	// Express the mask in the slave's axis space: masks shorter than the
	// axis clear everything beyond them, which is exactly right for
	// shared-band intersections.
	slave.unfoldVar(j, e.maskForSpace(beta, betaSpace, ss))
}

// clusteredSemiJoin implements Algorithm 5.3 over the patterns sharing ?j:
// the intersection of all their ?j projections unfolds every one of them.
func (e *Engine) clusteredSemiJoin(j sparql.Var, tps []*tpState) {
	if len(tps) < 2 {
		return
	}
	var beta *bitvec.Bits
	var betaSpace Space
	folds := make([]*bitvec.Bits, len(tps))
	for i, st := range tps {
		f, space, ok := st.foldVar(j)
		if !ok {
			continue
		}
		folds[i] = f
		if beta == nil {
			beta, betaSpace = f.Clone(), space
			continue
		}
		beta = e.intersectFolds(beta, betaSpace, f, space)
		if betaSpace != space {
			betaSpace = SpaceS // shared band indexes live in the S prefix
		}
	}
	if beta == nil {
		return
	}
	betaCount := beta.Count()
	for i, st := range tps {
		_, space, ok := st.axisOf(j)
		if !ok {
			continue
		}
		// Skip the unfold when the intersection keeps every binding of
		// this pattern (identity mask).
		if folds[i] != nil && folds[i].Count() == betaCount {
			continue
		}
		st.unfoldVar(j, e.maskForSpace(beta, betaSpace, space))
	}
}

// maskForSpace adapts a mask computed in maskSpace for unfolding an axis in
// axisSpace. Same space (or a shared-band mask) passes through; a genuinely
// incompatible pairing yields an empty mask.
func (e *Engine) maskForSpace(mask *bitvec.Bits, maskSpace, axisSpace Space) *bitvec.Bits {
	if maskSpace == axisSpace {
		return mask
	}
	soPair := (maskSpace == SpaceS && axisSpace == SpaceO) || (maskSpace == SpaceO && axisSpace == SpaceS)
	if soPair {
		shared := e.dict.NumShared()
		if len(e.dict.ExtSharedPairs()) == 0 {
			// Restrict to the shared band: bits beyond it cannot denote
			// the same term in the other dimension.
			if mask.Len() <= shared {
				return mask
			}
			out := bitvec.NewBits(shared)
			out.SetAll()
			out.AndCompat(mask)
			return out
		}
		// Overlay dictionary: translate through the shared band (identity)
		// and the extension pairs into the axis dimension.
		n := e.dict.NumObjects()
		if axisSpace == SpaceS {
			n = e.dict.NumSubjects()
		}
		out := bitvec.NewBits(n)
		mask.ForEach(func(i int) bool {
			if i >= shared {
				return false
			}
			out.Set(i)
			return true
		})
		for _, pr := range e.dict.ExtSharedPairs() {
			from, to := int(pr.S)-1, int(pr.O)-1
			if maskSpace == SpaceO {
				from, to = to, from
			}
			if mask.Test(from) {
				out.Set(to)
			}
		}
		return out
	}
	return bitvec.NewBits(0)
}

// pruneTriples implements Algorithm 3.2: one pass over orderbu and one over
// ordertd; at each join variable, first master-to-slave semi-joins, then
// clustered-semi-joins within each peer group. With more than one worker
// configured, the ops of one jvar level fan out in conflict-free waves
// (see scheduleWaves), which is execution-order equivalent to — and hence
// produces the same pruned matrices as — the sequential loop. A cancelled
// context stops the passes between jvar levels (and between waves); the
// caller checks ctx.Err() afterwards, so a partial prune is never treated
// as a complete one. workers bounds the fan-out of the waves; the branch
// executor passes the whole pool, since a query's branches run one after
// another.
//
// sp, when non-nil, is the branch's prune span: each jvar level becomes a
// "level" child recording the pass (bu/td), the variable, the triples
// held by its patterns before and after the level's semi-joins, and the
// level's wall time. The before/after counts cost a matrix count per
// holder, so they are computed only when tracing is on.
func (e *Engine) pruneTriples(ctx context.Context, plan *planner.Plan, tps []*tpState, workers int, sp *trace.Span) {
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
			holders := plan.GoJ.TPsOfVar[jIdx]
			lvlLimit := workers
			if lvlLimit > 1 {
				// Fan-out only pays off when the level folds/unfolds a
				// meaningful number of triples.
				if holderCount(holders) < parallelMinTriples {
					lvlLimit = 1
				}
			}
			var lsp *trace.Span
			if sp != nil {
				lsp = sp.Child("level")
				lsp.Set("pass", name)
				lsp.Set("var", string(plan.GoJ.Vars[jIdx]))
				lsp.Set("patterns", len(holders))
				lsp.Set("before", holderCount(holders))
			}
			runOps(ctx, lvlLimit, e.levelOps(plan.GoJ.Vars[jIdx], holders, plan, tps))
			if lsp != nil {
				lsp.Set("after", holderCount(holders))
				lsp.End()
			}
		}
	}
	pass("bu", plan.OrderBU)
	pass("td", plan.OrderTD)
}

// levelOps collects one jvar level's pruning operations in sequential
// execution order: master-slave semi-joins (Algorithm 3.2 lines 2-5 /
// 10-13), then clustered-semi-joins per peer class (lines 6-8 / 14-16).
// Each op declares the patterns it folds (reads) and unfolds (writes) so
// the wave scheduler can run independent ops concurrently.
func (e *Engine) levelOps(j sparql.Var, holders []int, plan *planner.Plan, tps []*tpState) []*pruneOp {
	var ops []*pruneOp
	for _, ti := range holders {
		for _, tj := range holders {
			if ti == tj || !plan.GoSN.TPIsMasterOf(ti, tj) {
				continue
			}
			master, slave := ti, tj
			ops = append(ops, &pruneOp{
				run:    func() { e.semiJoin(j, tps[slave], tps[master]) },
				reads:  []int{master, slave},
				writes: []int{slave},
			})
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
		var members []int
		for _, t2 := range holders {
			if plan.GoSN.ArePeers(plan.GoSN.SNOfTP[t2], sn) {
				group = append(group, tps[t2])
				members = append(members, t2)
			}
		}
		cluster := group
		ops = append(ops, &pruneOp{
			run:    func() { e.clusteredSemiJoin(j, cluster) },
			reads:  members,
			writes: members,
		})
	}
	return ops
}
