// Package planner implements the optimization strategies of Section 3 of
// the paper: join-variable selectivity ranking, get_jvar_order
// (Algorithm 3.1) with its induced-subtree bottom-up/top-down passes for
// acyclic queries and the greedy order for cyclic ones, and the Figure 3.1
// classification that decides whether nullification and best-match are
// required.
package planner

import (
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/sparql"
)

// Plan is the optimizer output the engine executes from.
type Plan struct {
	GoSN *algebra.GoSN
	GoJ  *algebra.GoJ

	// Cyclic reports whether the GoJ has a cycle (Section 3.3).
	Cyclic bool
	// Greedy reports that OrderBU/OrderTD are the greedy selectivity order
	// (both equal), used for cyclic queries.
	Greedy bool
	// NeedsBestMatch reports that nullification and best-match are
	// required: the query is cyclic and some slave supernode has more than
	// one join variable (Lemmas 3.3 and 3.4).
	NeedsBestMatch bool

	// OrderBU and OrderTD list jvar indexes (into GoJ.Vars) for the
	// bottom-up and top-down pruning passes; jvars may repeat when they
	// occur in several induced subtrees.
	OrderBU, OrderTD []int

	// Counts holds the per-pattern triple-count estimates driving every
	// selectivity decision.
	Counts []int64

	// SlaveOrder is SNss of Algorithm 3.1: the non-absolute-master
	// supernodes, masters before slaves, selective peers first.
	SlaveOrder []int
}

// BuildPlan runs the classification and Algorithm 3.1. counts[i] estimates
// the number of triples matching the i-th pattern of gosn.Patterns (exact
// per-BitMat counts from the index metadata, per Section 4).
func BuildPlan(gosn *algebra.GoSN, goj *algebra.GoJ, counts []int64) *Plan {
	p := &Plan{GoSN: gosn, GoJ: goj, Cyclic: goj.Cyclic, Counts: counts}
	p.NeedsBestMatch = decideBestMatch(gosn, goj)
	p.SlaveOrder = slaveOrder(gosn, counts)
	if goj.Cyclic {
		p.Greedy = true
		g := greedyOrder(goj, counts)
		p.OrderBU = g
		p.OrderTD = g
		return p
	}
	p.OrderBU, p.OrderTD = jvarOrder(gosn, goj, counts, p.SlaveOrder)
	if p.OrderBU == nil {
		// Defensive fallback (e.g. no jvars in absolute masters because of
		// a Cartesian product): use the greedy order.
		p.Greedy = true
		g := greedyOrder(goj, counts)
		p.OrderBU = g
		p.OrderTD = g
	}
	return p
}

// JvarSelectivity ranks a join variable by the most selective (fewest
// triples) pattern containing it; smaller is more selective (Section 3.2).
func JvarSelectivity(goj *algebra.GoJ, counts []int64, jvar int) int64 {
	sel := int64(math.MaxInt64)
	for _, tp := range goj.TPsOfVar[jvar] {
		if counts[tp] < sel {
			sel = counts[tp]
		}
	}
	return sel
}

// decideBestMatch implements the Figure 3.1 classification for
// well-designed queries: nullification/best-match are avoidable for acyclic
// GoJ, and for cyclic GoJ when every slave supernode has at most one join
// variable.
//
// One addition beyond Figure 3.1, found by the differential fuzzer: a
// slave peer class (a slave supernode together with the peers it is inner
// joined to) whose patterns do not form one variable-connected component
// can match PARTIALLY — a pattern matches while a disconnected sibling
// fails (e.g. OPTIONAL { ?a <p> ?b . ?m <q> ?m } with ?m bound by the
// master: the ?a/?b scan proceeds even when ?m's probe fails, because
// prune_triples minimality only reaches patterns connected through join
// variables). A variable-free pattern connects to nothing, so it is such
// a sibling too: a boolean guard on its class. Rule 3 splits peers apart
// the same way: OPTIONAL { {?m <p> ?z} {?x <q> ?w} } with ?m and ?x bound
// by the master has two peers linked only through master variables. The
// pipelined join can only repair such rows through nullification, so
// these queries take the best-match path regardless of cyclicity.
func decideBestMatch(gosn *algebra.GoSN, goj *algebra.GoJ) bool {
	for _, sn := range gosn.SlaveSupernodes() {
		if !peerClassConnected(gosn, sn) {
			return true
		}
	}
	if !goj.Cyclic {
		return false
	}
	for _, sn := range gosn.SlaveSupernodes() {
		jvars := 0
		for v := range gosn.VarsOfSupernode(sn) {
			if _, ok := goj.VarIdx[v]; ok {
				jvars++
			}
		}
		if jvars > 1 {
			return true
		}
	}
	return false
}

// peerClassConnected reports whether the patterns of sn's peer class form
// a single component under the shares-a-variable relation (any variable
// two patterns share is by definition a join variable, so this is exactly
// jvar connectivity restricted to the class).
func peerClassConnected(gosn *algebra.GoSN, sn int) bool {
	var tps []int
	for _, p := range gosn.Peers(sn) {
		tps = append(tps, gosn.Supernodes[p].TPs...)
	}
	if len(tps) <= 1 {
		return true
	}
	varsOf := make([]map[sparql.Var]bool, len(tps))
	for i, tp := range tps {
		varsOf[i] = map[sparql.Var]bool{}
		for _, v := range gosn.Patterns[tp].Vars() {
			varsOf[i][v] = true
		}
	}
	// BFS from the first pattern over shared-variable edges.
	visited := make([]bool, len(tps))
	queue := []int{0}
	visited[0] = true
	reached := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for j := range tps {
			if visited[j] {
				continue
			}
			shared := false
			for v := range varsOf[cur] {
				if varsOf[j][v] {
					shared = true
					break
				}
			}
			if shared {
				visited[j] = true
				reached++
				queue = append(queue, j)
			}
		}
	}
	return reached == len(tps)
}

// greedyOrder ranks all jvars in descending order of selectivity (most
// selective first), the ordergreedy of Algorithm 3.1 line 2.
func greedyOrder(goj *algebra.GoJ, counts []int64) []int {
	order := make([]int, len(goj.Vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := JvarSelectivity(goj, counts, order[a]), JvarSelectivity(goj, counts, order[b])
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	return order
}

// slaveOrder computes SNss (Algorithm 3.1 line 8): the non-absolute-master
// supernodes ordered so that masters come before their slaves; among
// incomparable supernodes the one with the more selective (smallest-count)
// triple pattern comes first.
func slaveOrder(gosn *algebra.GoSN, counts []int64) []int {
	slaves := gosn.SlaveSupernodes()
	minCount := func(sn int) int64 {
		m := int64(math.MaxInt64)
		for _, tp := range gosn.Supernodes[sn].TPs {
			if counts[tp] < m {
				m = counts[tp]
			}
		}
		return m
	}
	// Kahn-style topological sort over the (transitive) master relation
	// restricted to the slave set, with a selectivity tie-break.
	remaining := map[int]bool{}
	for _, s := range slaves {
		remaining[s] = true
	}
	var out []int
	for len(remaining) > 0 {
		var ready []int
		for s := range remaining {
			free := true
			for m := range remaining {
				if m != s && gosn.IsMaster(m, s) {
					free = false
					break
				}
			}
			if free {
				ready = append(ready, s)
			}
		}
		if len(ready) == 0 {
			// Master relation is acyclic for tree-shaped GoSNs; defensive.
			for s := range remaining {
				ready = append(ready, s)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			ca, cb := minCount(ready[a]), minCount(ready[b])
			if ca != cb {
				return ca < cb
			}
			return ready[a] < ready[b]
		})
		pick := ready[0]
		out = append(out, pick)
		delete(remaining, pick)
	}
	return out
}

// jvarOrder implements lines 4-19 of Algorithm 3.1 for acyclic queries.
// It returns nil orders when no jvar occurs in an absolute master.
func jvarOrder(gosn *algebra.GoSN, goj *algebra.GoJ, counts []int64, snss []int) (orderBU, orderTD []int) {
	if len(goj.Vars) == 0 {
		return []int{}, []int{}
	}
	// Jm: jvars occurring in absolute master supernodes.
	inMaster := map[int]bool{}
	for _, sn := range gosn.AbsoluteMasters() {
		for v := range gosn.VarsOfSupernode(sn) {
			if idx, ok := goj.VarIdx[v]; ok {
				inMaster[idx] = true
			}
		}
	}
	if len(inMaster) == 0 {
		return nil, nil
	}
	jm := make([]int, 0, len(inMaster))
	for j := range inMaster {
		jm = append(jm, j)
	}
	sort.Ints(jm)
	// Root: the LEAST selective jvar of Jm, so it is processed last in the
	// bottom-up pass (Algorithm 3.1 line 5).
	root := jm[0]
	rootSel := JvarSelectivity(goj, counts, root)
	for _, j := range jm[1:] {
		if s := JvarSelectivity(goj, counts, j); s > rootSel {
			root, rootSel = j, s
		}
	}
	tm := goj.GetTree(jm, root)
	orderBU = append(orderBU, tm.BottomUp()...)
	orderTD = append(orderTD, tm.TopDown()...)

	for _, sn := range snss {
		var js []int
		for v := range gosn.VarsOfSupernode(sn) {
			if idx, ok := goj.VarIdx[v]; ok {
				js = append(js, idx)
			}
		}
		if len(js) == 0 {
			continue
		}
		sort.Ints(js)
		// Root: a jvar of the slave that also occurs in one of its masters
		// (line 11). With a connected GoJ one always exists; fall back to
		// the first jvar otherwise.
		masterVars := map[int]bool{}
		for _, m := range gosn.MastersOf(sn) {
			for v := range gosn.VarsOfSupernode(m) {
				if idx, ok := goj.VarIdx[v]; ok {
					masterVars[idx] = true
				}
			}
		}
		root := js[0]
		for _, j := range js {
			if masterVars[j] {
				root = j
				break
			}
		}
		ts := goj.GetTree(js, root)
		orderBU = append(orderBU, ts.BottomUp()...)
		orderTD = append(orderTD, ts.TopDown()...)
	}
	return orderBU, orderTD
}

// JoinRoot returns the position, within a list of pattern indices given in
// the multi-way join's visit order, of the first pattern none of whose
// masters is also in the list — the pattern the pipelined join visits first
// when nothing is bound yet (it mirrors the engine's pickNext with an empty
// binding set). The root is what the adaptive partitioner splits: its
// surviving triples are the outermost enumeration of the join, so slicing
// them partitions the whole result. Returns -1 when every pattern has a
// master in the list (cannot happen for a well-formed GoSN; defensive).
func (p *Plan) JoinRoot(tpIdx []int) int {
	for i, ti := range tpIdx {
		free := true
		for j, tj := range tpIdx {
			if j != i && p.GoSN.TPIsMasterOf(tj, ti) {
				free = false
				break
			}
		}
		if free {
			return i
		}
	}
	return -1
}

// FirstOccurrence returns, for every jvar index, its first position in the
// bottom-up order, used by the engine to choose the BitMat orientation of
// two-variable patterns (Section 5: the variable appearing first in orderbu
// becomes the row dimension).
func (p *Plan) FirstOccurrence() map[int]int {
	first := map[int]int{}
	for pos, j := range p.OrderBU {
		if _, ok := first[j]; !ok {
			first[j] = pos
		}
	}
	return first
}

// RowVar chooses the row variable for a two-variable pattern: the join
// variable occurring earliest in OrderBU; a join variable wins over a
// non-join variable; ties fall to the subject.
func (p *Plan) RowVar(tp sparql.TriplePattern) (row sparql.Var, ok bool) {
	first := p.FirstOccurrence()
	var sVar, oVar sparql.Var
	hasS, hasO := false, false
	if tp.S.IsVar {
		sVar, hasS = tp.S.Var, true
	}
	if tp.O.IsVar {
		oVar, hasO = tp.O.Var, true
	}
	if !hasS || !hasO {
		return "", false
	}
	sJ, sIsJ := p.GoJ.VarIdx[sVar]
	oJ, oIsJ := p.GoJ.VarIdx[oVar]
	switch {
	case sIsJ && !oIsJ:
		return sVar, true
	case oIsJ && !sIsJ:
		return oVar, true
	case sIsJ && oIsJ:
		sp, spOK := first[sJ]
		op, opOK := first[oJ]
		switch {
		case spOK && (!opOK || sp <= op):
			return sVar, true
		case opOK:
			return oVar, true
		}
	}
	return sVar, true
}
