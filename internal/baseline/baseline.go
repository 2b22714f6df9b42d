// Package baseline is the relational comparator the evaluation section
// measures LBR against. It models a column store executing SPARQL-over-SQL:
// per-predicate tables sorted on (S,O) with an (O,S) index, pairwise hash
// joins, and left-outer joins evaluated in the query's original nesting
// order (left-outer joins are not reordered, which is exactly the
// limitation LBR's pruning sidesteps).
//
// Two policies stand in for the two systems of Section 6:
//
//   - OriginalOrder ("MonetDB-like"): bulk evaluation of the query tree
//     exactly as written.
//   - SelectiveMaster ("Virtuoso-like"): triple patterns within a BGP are
//     reordered by selectivity, and when an outer pattern's result is small
//     its bindings are pushed into the scans of the inner pattern as a
//     hash-set filter, modelling the hash+bloom strategy the paper observed
//     in Virtuoso's plans for highly selective masters.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Policy selects the evaluation strategy.
type Policy int

const (
	// OriginalOrder evaluates the query tree exactly as written.
	OriginalOrder Policy = iota
	// SelectiveMaster reorders patterns within BGPs by selectivity and
	// pushes selective outer bindings into inner scans.
	SelectiveMaster
)

func (p Policy) String() string {
	if p == OriginalOrder {
		return "original-order"
	}
	return "selective-master"
}

// pushdownThreshold is the row-count ceiling below which SelectiveMaster
// pushes bindings sideways into inner scans.
const pushdownThreshold = 4096

// Engine is a baseline query engine over the shared predicate tables.
type Engine struct {
	idx    bitmat.Source
	dict   *rdf.Dictionary
	policy Policy
}

// New returns a baseline engine over the merged, (A,B)-sorted pair tables
// of a snapshot. Both a compacted *bitmat.Index and a delta
// *bitmat.Overlay are a bitmat.Source, so the comparator can evaluate a
// store's live snapshot without forcing a compaction.
func New(idx bitmat.Source, policy Policy) *Engine {
	return &Engine{idx: idx, dict: idx.Dictionary(), policy: policy}
}

// Result is the output of a baseline execution.
type Result struct {
	Vars    []sparql.Var
	Rows    [][]rdf.Term
	Elapsed time.Duration
}

// val encodes a binding as space<<32|id; 0 is NULL. Subjects and objects
// share one ID space, so an S-O join compares equal values.
type val uint64

const (
	spcSO uint64 = 1
	spcP  uint64 = 2
)

func mkVal(space uint64, id rdf.ID) val { return val(space<<32 | uint64(id)) }

func (e *Engine) valTerm(v val) rdf.Term {
	if v == 0 {
		return rdf.Term{}
	}
	id := rdf.ID(v & 0xffffffff)
	var t rdf.Term
	switch uint64(v) >> 32 {
	case spcSO:
		t, _ = e.dict.SOTerm(id)
	case spcP:
		t, _ = e.dict.Predicate(id)
	}
	return t
}

// relation is a materialized intermediate result.
type relation struct {
	vars []sparql.Var
	pos  map[sparql.Var]int
	rows [][]val
}

func newRelation(vars []sparql.Var) *relation {
	r := &relation{vars: vars, pos: make(map[sparql.Var]int, len(vars))}
	for i, v := range vars {
		r.pos[v] = i
	}
	return r
}

type valSet map[val]struct{}

// ctx carries sideways bindings pushed into scans (SelectiveMaster only).
type ctx map[sparql.Var]valSet

// Execute evaluates a parsed query.
func (e *Engine) Execute(q *sparql.Query) (*Result, error) {
	start := time.Now()
	tree, err := algebra.FromQuery(q)
	if err != nil {
		return nil, err
	}
	rel, err := e.eval(tree, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Vars: rel.vars}
	if !q.SelectAll() {
		rel = projectRel(rel, q.Select)
		res.Vars = rel.vars
	}
	res.Rows = make([][]rdf.Term, len(rel.rows))
	for i, row := range rel.rows {
		tr := make([]rdf.Term, len(row))
		for k, v := range row {
			tr[k] = e.valTerm(v)
		}
		res.Rows[i] = tr
	}
	if q.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func distinctRows(rows [][]rdf.Term) [][]rdf.Term {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		var sb []byte
		for _, t := range r {
			sb = append(sb, t.Key()...)
			sb = append(sb, 0)
		}
		k := string(sb)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// SortedRowStrings renders the rows canonically for comparisons in tests
// and the bench harness.
func (r *Result) SortedRowStrings() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		s := ""
		for k, t := range row {
			if k > 0 {
				s += "|"
			}
			if t.IsZero() {
				s += "NULL"
			} else {
				s += t.String()
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// ExecuteString parses and executes a query.
func (e *Engine) ExecuteString(src string) (*Result, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

func (e *Engine) eval(t algebra.Tree, c ctx) (*relation, error) {
	switch n := t.(type) {
	case *algebra.Leaf:
		return e.evalBGP(n.Patterns, c)
	case *algebra.Join:
		l, err := e.eval(n.L, c)
		if err != nil {
			return nil, err
		}
		rc := c
		if e.policy == SelectiveMaster && len(l.rows) <= pushdownThreshold {
			rc = mergeCtx(c, relCtx(l))
		}
		r, err := e.eval(n.R, rc)
		if err != nil {
			return nil, err
		}
		return hashJoin(l, r, false), nil
	case *algebra.LeftJoin:
		l, err := e.eval(n.L, c)
		if err != nil {
			return nil, err
		}
		rc := c
		if e.policy == SelectiveMaster && len(l.rows) <= pushdownThreshold {
			rc = mergeCtx(c, relCtx(l))
		}
		r, err := e.eval(n.R, rc)
		if err != nil {
			return nil, err
		}
		return hashJoin(l, r, true), nil
	case *algebra.UnionT:
		var out *relation
		for _, a := range n.Alts {
			rel, err := e.eval(a, c)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = rel
				continue
			}
			out = unionRel(out, rel)
		}
		return out, nil
	case *algebra.FilterT:
		child, err := e.eval(n.Child, c)
		if err != nil {
			return nil, err
		}
		return e.filterRel(child, n.Expr), nil
	}
	return nil, fmt.Errorf("baseline: unknown node %T", t)
}

// evalBGP evaluates one OPT-free BGP with left-deep hash joins.
func (e *Engine) evalBGP(pats []sparql.TriplePattern, c ctx) (*relation, error) {
	order := make([]int, len(pats))
	for i := range order {
		order[i] = i
	}
	if e.policy == SelectiveMaster {
		// Ascending estimated cardinality, keeping connectivity: the next
		// pattern shares a variable with those already placed if possible.
		card := make([]int64, len(pats))
		for i, tp := range pats {
			card[i] = e.estimate(tp)
		}
		placedVars := map[sparql.Var]bool{}
		var placed []int
		used := make([]bool, len(pats))
		for len(placed) < len(pats) {
			best, bestCard, bestConn := -1, int64(0), false
			for i := range pats {
				if used[i] {
					continue
				}
				conn := len(placed) == 0
				for _, v := range pats[i].Vars() {
					if placedVars[v] {
						conn = true
					}
				}
				if best == -1 || (conn && !bestConn) || (conn == bestConn && card[i] < bestCard) {
					best, bestCard, bestConn = i, card[i], conn
				}
			}
			used[best] = true
			placed = append(placed, best)
			for _, v := range pats[best].Vars() {
				placedVars[v] = true
			}
		}
		order = placed
	}
	var acc *relation
	for _, i := range order {
		scanCtx := c
		if e.policy == SelectiveMaster && acc != nil && len(acc.rows) <= pushdownThreshold {
			scanCtx = mergeCtx(c, relCtx(acc))
		}
		rel, err := e.scan(pats[i], scanCtx)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = rel
		} else {
			acc = hashJoin(acc, rel, false)
		}
	}
	if acc == nil {
		return newRelation(nil), nil
	}
	return acc, nil
}

// estimate returns the exact number of index triples matching tp.
func (e *Engine) estimate(tp sparql.TriplePattern) int64 {
	s, p, o, ok := tp.IDs(e.dict)
	if !ok {
		return 0
	}
	return bitmat.Count(e.idx, s, p, o)
}
