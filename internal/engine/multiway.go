package engine

import (
	"context"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/planner"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// sortTPs computes stps (Section 5.1): triple patterns of absolute master
// supernodes first, ascending by remaining triple count; then the rest in
// descending master-slave hierarchy, selective peers first. The order
// guarantees a master's bindings enter vmap before its slaves'.
func sortTPs(plan *planner.Plan, tps []*tpState) []*tpState {
	var masters, rest []*tpState
	for _, st := range tps {
		if plan.GoSN.IsAbsoluteMaster(st.sn) {
			masters = append(masters, st)
		} else {
			rest = append(rest, st)
		}
	}
	sort.SliceStable(masters, func(i, j int) bool { return masters[i].count() < masters[j].count() })
	// Slave supernode order comes from the plan (masters before slaves,
	// selective peers first); patterns inside a supernode sort by count.
	rank := map[int]int{}
	for i, sn := range plan.SlaveOrder {
		rank[sn] = i
	}
	sort.SliceStable(rest, func(i, j int) bool {
		ri, rj := rank[rest[i].sn], rank[rest[j].sn]
		if ri != rj {
			return ri < rj
		}
		return rest[i].count() < rest[j].count()
	})
	return append(masters, rest...)
}

// Variable binding states in the join.
const (
	stUnbound uint8 = iota
	stBound
	stNull
)

// joinRun is the per-execution state of the multi-way pipelined join
// (Algorithm 5.4). All hot-path state is integer-indexed: variables map to
// dense IDs, patterns to their position in stps.
type joinRun struct {
	plan *planner.Plan
	stps []*tpState

	vars   []sparql.Var // dense variable universe
	varIDs map[sparql.Var]int

	// Per-pattern precomputation, indexed by stps position.
	tpVars   [][]int // dense var IDs of each pattern's axis variables
	rowVarID []int   // -1 if the row axis carries no variable
	colVarID []int
	isAbs    []bool  // absolute-master pattern
	masterOf [][]int // stps positions that are masters of this pattern
	snOf     []int

	// Per-variable run state. A bound variable holds its term's ID: an
	// S/O ID, or for a variable in a predicate position a pid. Its cell is
	// cellOf[v][id], or the ID itself when cellOf[v] is nil (an S/O ID in
	// a snapshot without the zero Term; see cellTables).
	bindings []rdf.ID
	cellOf   [][]uint32
	state    []uint8
	ownerSN  []int // supernode that first bound the var; -1 when unbound

	visited  []bool
	matched  []uint8 // 0 unknown, 1 matched, 2 nulled
	nVisited int

	// Directory cursors, per pattern: the Matrix.Seek hints of the
	// bound-row probe and of the bound-column probe through the transpose.
	rowHint, colHint []int

	nulreqd bool
	emit    func(*joinRun) bool // returns false to stop enumeration
	stopped bool
	ctx     context.Context
	steps   int64 // recursion steps so far (for the amortized context check)

	// Root partition (parallel join): when rootTP >= 0, the enumeration of
	// that pattern — always the first one visited, with nothing bound — is
	// restricted to [rootLo, rootHi) on its scan axis: row indices for
	// two-variable patterns, column indices of the single row otherwise.
	rootTP         int
	rootLo, rootHi int
}

// restrictRoot limits the root pattern's enumeration to one partition, so
// several joinRuns over the same stps cover disjoint slices of the result.
func (r *joinRun) restrictRoot(tp, lo, hi int) {
	r.rootTP, r.rootLo, r.rootHi = tp, lo, hi
}

func newJoinRun(ctx context.Context, e *Engine, plan *planner.Plan, stps []*tpState, vars []sparql.Var, nulreqd bool, emit func(*joinRun) bool) *joinRun {
	r := &joinRun{
		ctx:     ctx,
		plan:    plan,
		stps:    stps,
		vars:    vars,
		varIDs:  make(map[sparql.Var]int, len(vars)),
		nulreqd: nulreqd,
		emit:    emit,
	}
	for i, v := range vars {
		r.varIDs[v] = i
	}
	n := len(stps)
	r.tpVars = make([][]int, n)
	r.rowVarID = make([]int, n)
	r.colVarID = make([]int, n)
	r.isAbs = make([]bool, n)
	r.masterOf = make([][]int, n)
	r.snOf = make([]int, n)
	for i, st := range stps {
		r.rowVarID[i], r.colVarID[i] = -1, -1
		if st.rowVar != "" {
			r.rowVarID[i] = r.varIDs[st.rowVar]
			r.tpVars[i] = append(r.tpVars[i], r.rowVarID[i])
		}
		if st.colVar != "" && st.colVar != st.rowVar {
			r.colVarID[i] = r.varIDs[st.colVar]
			r.tpVars[i] = append(r.tpVars[i], r.colVarID[i])
		} else if st.colVar != "" {
			r.colVarID[i] = r.varIDs[st.colVar]
		}
		r.isAbs[i] = plan.GoSN.IsAbsoluteMaster(st.sn)
		r.snOf[i] = st.sn
		for j, other := range stps {
			if j != i && plan.GoSN.TPIsMasterOf(other.idx, st.idx) {
				r.masterOf[i] = append(r.masterOf[i], j)
			}
		}
	}
	r.bindings = make([]rdf.ID, len(vars))
	// A variable binds in the S/O space, unless it holds a predicate
	// position (it then occurs nowhere else: the GoJ rejects the join).
	tables := e.cellTables()
	r.cellOf = make([][]uint32, len(vars))
	for v := range r.cellOf {
		r.cellOf[v] = tables.so
	}
	for _, st := range stps {
		if st.pat.P.IsVar {
			r.cellOf[r.varIDs[st.pat.P.Var]] = tables.pred
		}
	}
	r.state = make([]uint8, len(vars))
	r.ownerSN = make([]int, len(vars))
	for i := range r.ownerSN {
		r.ownerSN[i] = -1
	}
	r.visited = make([]bool, n)
	r.matched = make([]uint8, n)
	r.rowHint = make([]int, n)
	r.colHint = make([]int, n)
	r.rootTP = -1
	return r
}

// run drives the recursion.
func (r *joinRun) run() {
	r.recurse()
}

// pickNext selects the next pattern: the first unvisited one (in stps
// order) all of whose masters are visited, preferring one with a bound or
// nulled variable; the first eligible one otherwise (Cartesian fallback).
func (r *joinRun) pickNext() int {
	firstEligible := -1
	for i := range r.stps {
		if r.visited[i] {
			continue
		}
		eligible := true
		for _, m := range r.masterOf[i] {
			if !r.visited[m] {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if firstEligible < 0 {
			firstEligible = i
		}
		for _, v := range r.tpVars[i] {
			if r.state[v] != stUnbound {
				return i
			}
		}
	}
	return firstEligible
}

func (r *joinRun) recurse() {
	if r.stopped {
		return
	}
	// Cancellation check, amortized over recursion steps rather than
	// emitted rows: in a cyclic query, where pruning is not minimal, every
	// partial binding may die before it completes a row.
	if r.steps++; r.steps&1023 == 0 && r.ctx.Err() != nil {
		r.stopped = true
		return
	}
	if r.nVisited == len(r.stps) {
		if !r.emit(r) {
			r.stopped = true
		}
		return
	}
	i := r.pickNext()
	if i < 0 {
		return
	}
	st := r.stps[i]
	r.visited[i] = true
	r.nVisited++
	defer func() {
		r.visited[i] = false
		r.nVisited--
		r.matched[i] = 0
	}()

	// A slave whose (transitive) master supernode already failed is out of
	// scope for this row: OPTIONAL nesting evaluates an inner pattern only
	// within its master's solutions. Null-intolerant probing enforces this
	// when the patterns share a variable (the probe hits a NULL binding),
	// but a nested OPTIONAL sharing no variable with its failed master
	// would otherwise enumerate freely — found by the differential fuzzer
	// on { ?x <p> ?y OPTIONAL { ?x <q> ?a OPTIONAL { ?b <p> ?c } } }.
	if !r.isAbs[i] {
		for _, m := range r.masterOf[i] {
			if r.matched[m] == 2 {
				r.failSlave(i)
				return
			}
		}
	}

	if st.mat == nil { // zero-variable pattern
		switch {
		case st.present:
			r.matched[i] = 1
			r.recurse()
		case r.isAbs[i]:
			// An absolute master cannot be NULL: rollback.
		default:
			r.matched[i] = 2
			r.recurse()
		}
		return
	}

	if r.enumerate(i, st) {
		return
	}
	if r.isAbs[i] {
		return // rollback (Algorithm 5.4 line 28)
	}
	// Slave with no matching triple: bind its unbound variables to NULL and
	// continue (lines 29-32).
	r.failSlave(i)
}

// failSlave marks slave pattern i as unmatched for the current context:
// its unbound variables bind to NULL for the rest of the recursion
// (Algorithm 5.4 lines 29-32) and are restored on backtrack. A pattern
// has at most two variables, so the nulled ones fit on the stack.
func (r *joinRun) failSlave(i int) {
	var nulled [2]int
	n := 0
	for _, v := range r.tpVars[i] {
		if r.state[v] == stUnbound {
			r.state[v] = stNull
			r.ownerSN[v] = r.snOf[i]
			nulled[n] = v
			n++
		}
	}
	r.matched[i] = 2
	r.recurse()
	for _, v := range nulled[:n] {
		r.state[v] = stUnbound
		r.ownerSN[v] = -1
	}
}

// enumerate iterates the triples of pattern i consistent with the current
// bindings, recursing per triple. It reports whether any triple matched:
// visit marks matched[i], which nothing below this frame resets.
// NULL-bound variables match nothing (null-intolerant probing).
func (r *joinRun) enumerate(i int, st *tpState) bool {
	rowBoundIdx, rowBound := -1, false
	colBoundIdx, colBound := -1, false
	rv, cv := r.rowVarID[i], r.colVarID[i]
	selfJoin := rv >= 0 && rv == cv

	if rv >= 0 {
		switch r.state[rv] {
		case stNull:
			return false
		case stBound:
			rowBoundIdx, rowBound = int(r.bindings[rv])-1, true
		}
	}
	if cv >= 0 && !selfJoin {
		switch r.state[cv] {
		case stNull:
			return false
		case stBound:
			colBoundIdx, colBound = int(r.bindings[cv])-1, true
		}
	}

	switch {
	case st.rowVar == "": // single-row matrix: only the column axis binds
		row := st.mat.Row(0)
		switch {
		case row == nil:
		case colBound:
			if row.Test(colBoundIdx) {
				r.visit(i, 0, colBoundIdx)
			}
		case i == r.rootTP:
			r.scan(i, 0, row, r.rootLo, r.rootHi, false)
		default:
			r.scan(i, 0, row, 0, row.Len(), false)
		}
	case rowBound:
		var row *bitvec.Row
		row, r.rowHint[i] = st.mat.Seek(rowBoundIdx, r.rowHint[i])
		switch {
		case row == nil:
		case colBound || selfJoin:
			target := colBoundIdx
			if selfJoin {
				target = rowBoundIdx
			}
			if row.Test(target) {
				r.visit(i, rowBoundIdx, target)
			}
		default:
			r.scan(i, rowBoundIdx, row, 0, row.Len(), false)
		}
	case colBound:
		// Column probe through the cached transpose (built once per
		// execution, after pruning has shrunk the matrix).
		var col *bitvec.Row
		col, r.colHint[i] = st.transpose().Seek(colBoundIdx, r.colHint[i])
		if col != nil {
			r.scan(i, colBoundIdx, col, 0, col.Len(), true)
		}
	case i == r.rootTP:
		st.mat.ForEachRowRange(r.rootLo, r.rootHi, func(rr int, row *bitvec.Row) bool {
			return r.scan(i, rr, row, 0, row.Len(), false)
		})
	default:
		st.mat.ForEachRow(func(rr int, row *bitvec.Row) bool {
			return r.scan(i, rr, row, 0, row.Len(), false)
		})
	}
	return r.matched[i] == 1
}

// scan visits the set bits of row that lie in [lo, hi): each bit c is
// the triple (fixed, c), or (c, fixed) when row is a column of the
// transpose. It loops over the row's compressed form inline, with no
// call per bit but the visit itself, and reports whether the join goes on.
func (r *joinRun) scan(i, fixed int, row *bitvec.Row, lo, hi int, col bool) bool {
	pos, runs, first := row.Raw()
	if runs == nil {
		k := 0
		if lo > 0 {
			k, _ = slices.BinarySearch(pos, uint32(lo))
		}
		for _, p := range pos[k:] {
			if int(p) >= hi {
				break
			}
			if !r.visitAt(i, fixed, int(p), col) {
				return false
			}
		}
		return true
	}
	set, at := first, 0
	for _, rl := range runs {
		end := min(at+int(rl), hi)
		for c := max(at, lo); set && c < end; c++ {
			if !r.visitAt(i, fixed, c, col) {
				return false
			}
		}
		if at += int(rl); at >= hi {
			break
		}
		set = !set
	}
	return true
}

// visitAt is visit with the axes of a transposed row swapped back.
func (r *joinRun) visitAt(i, fixed, c int, col bool) bool {
	if col {
		return r.visit(i, c, fixed)
	}
	return r.visit(i, fixed, c)
}

// visit extends the current context by the triple (rowIdx, colIdx) of
// pattern i: it binds the pattern's unbound variables, recurses, and
// unbinds them. It reports whether the join goes on.
func (r *joinRun) visit(i, rowIdx, colIdx int) bool {
	rv, cv := r.rowVarID[i], r.colVarID[i]
	bound0, bound1 := -1, -1
	if rv >= 0 && r.state[rv] == stUnbound {
		r.bindings[rv] = rdf.ID(rowIdx + 1)
		r.state[rv] = stBound
		r.ownerSN[rv] = r.snOf[i]
		bound0 = rv
	}
	if cv >= 0 && r.state[cv] == stUnbound {
		r.bindings[cv] = rdf.ID(colIdx + 1)
		r.state[cv] = stBound
		r.ownerSN[cv] = r.snOf[i]
		bound1 = cv
	}
	r.matched[i] = 1
	r.recurse()
	if bound0 >= 0 {
		r.state[bound0] = stUnbound
		r.ownerSN[bound0] = -1
	}
	if bound1 >= 0 {
		r.state[bound1] = stUnbound
		r.ownerSN[bound1] = -1
	}
	return !r.stopped
}

// nullification (Section 3.1 / Algorithm 5.4 line 3) restores consistency
// with the original join order: a slave supernode with any unmatched
// pattern fails as a whole; every variable owned by a failed supernode is
// nulled, and failures cascade to supernodes that consumed those bindings.
// It returns the failed supernode set (nil when nothing changed).
func (r *joinRun) nullification() map[int]bool {
	failed := map[int]bool{}
	for i := range r.stps {
		if r.matched[i] == 2 && !r.isAbs[i] {
			failed[r.snOf[i]] = true
		}
	}
	if len(failed) == 0 {
		return nil
	}
	r.cascadeFailures(failed)
	return failed
}

// cascadeFailures extends the failed set to supernodes that consumed
// bindings owned by failed supernodes, across peer classes, and down the
// GoSN hierarchy. A peer of a failed slave fails with it: peers are one
// inner join, so OPTIONAL { {A} {C} } has no solution once C has none,
// even where A matched and shares no variable with C (a rule-3 split
// produces exactly such peers). A slave of a failed supernode fails with
// it even when the two share no variable (a nested OPTIONAL is only in
// scope within its master's solutions).
func (r *joinRun) cascadeFailures(failed map[int]bool) {
	gosn := r.plan.GoSN
	changed := true
	for changed {
		changed = false
		for i := range r.stps {
			sn := r.snOf[i]
			if failed[sn] || r.isAbs[i] {
				continue
			}
			for _, m := range append(gosn.MastersOf(sn), gosn.Peers(sn)...) {
				if failed[m] {
					failed[sn] = true
					changed = true
					break
				}
			}
			if failed[sn] {
				continue
			}
			for _, v := range r.tpVars[i] {
				owner := r.ownerSN[v]
				if owner >= 0 && owner != sn && failed[owner] {
					failed[sn] = true
					changed = true
					break
				}
			}
		}
	}
}
