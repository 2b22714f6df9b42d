package algebra

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Branch is one union-free branch of a query in UNION normal form
// (Section 5.2): a pure Join/LeftJoin/Leaf tree plus the filters that
// applied to (parts of) it, each annotated with the range of leaves it
// scopes over.
type Branch struct {
	Tree Tree
	// Filters lists the scoped filters in evaluation order (innermost
	// first).
	Filters []ScopedFilter
	// UsedRule3 reports that this branch came from distributing a LeftJoin
	// over a union on its right side (rewrite rule 3), which can introduce
	// spurious results: the caller must apply best-match over the union of
	// all branch results.
	UsedRule3 bool
	// DupGroup identifies the rule-3 distribution group of the branch: two
	// branches share a group exactly when they differ only in which
	// alternative of a LeftJoin's right-side union each rule-3 split kept.
	// A master row whose distributed right side fails emits one identical
	// nulled row per alternative of that split — artifacts of the rewrite,
	// not bag duplicates — so the minimum union collapses them within a
	// group and never across groups (genuine UNION branches keep their
	// duplicates).
	DupGroup string
	// DupSplits records, in deterministic traversal order (identical for
	// every branch of a group), each rule-3 split point on the branch's
	// path. A row is an artifact duplicate of another row exactly when
	// both rows agree on content and on the choices of every split that
	// matched; splits whose witness variables are all NULL failed, so the
	// choice made at them is irrelevant.
	DupSplits []DupSplit
	// Substs records the whole-scope equality filters
	// SubstituteCheapFilters folded into the patterns; the executor
	// re-injects them into result rows (see CheapSubst).
	Substs []CheapSubst
	// SynthWitnesses lists the synthetic witness bindings of the branch's
	// rule-3 splits whose kept alternative is witnessless (see
	// SynthWitnessVar): the executor binds Var in a result row exactly when
	// every pattern in TPs matched, giving dedup/best-match a column that
	// distinguishes the alternative's genuine matches from its failure
	// artifacts. The variables are hidden — they never appear in a triple
	// pattern, so result headers (built from TreeVars) exclude them, and
	// the executor strips their columns before projection.
	SynthWitnesses []SynthWitness
}

// SynthWitness is one synthetic witness binding: the hidden variable and
// the tree-leaf-order indexes of the patterns whose joint match binds it —
// the master part of the distributed subtree, i.e. every pattern not under
// the right side of a nested LeftJoin. (A nested OPTIONAL failing must not
// clear the witness: the alternative still matched.)
type SynthWitness struct {
	Var sparql.Var
	TPs []int
}

// synthWitnessPrefix starts every synthetic witness variable name. NUL can
// never occur in a parsed variable name, so hidden variables cannot
// collide with (or be addressed by) query text.
const synthWitnessPrefix = "\x00w:"

// SynthWitnessVar names the hidden witness variable of alternative alt of
// the rule-3 split splitID. The name is deterministic, so the same
// (split, alternative) pair maps to the same column in every branch that
// mentions it.
func SynthWitnessVar(splitID string, alt int) sparql.Var {
	return sparql.Var(fmt.Sprintf("%s%s:%d", synthWitnessPrefix, splitID, alt))
}

// IsSynthWitnessVar reports whether v is a synthetic witness variable.
func IsSynthWitnessVar(v sparql.Var) bool {
	return len(v) >= len(synthWitnessPrefix) && string(v[:len(synthWitnessPrefix)]) == synthWitnessPrefix
}

// DupSplit is one rule-3 split point of a branch: a stable identifier of
// the splitting tree node (identical across every branch of a group, so
// the same split aligns across branches even when nested splits give the
// branches different split counts), the split's witness variables, and
// the alternative this branch took. The witnesses are the distributed
// subtree's own variables (variables shared with the left side stay bound
// on failure and cannot witness, so they are excluded) plus one synthetic
// witness per alternative whose master part has no own variable (see
// SynthWitness) — so every alternative of every split has at least one
// witness column, and a failed split is always detectable.
type DupSplit struct {
	ID     string
	Vars   []sparql.Var
	Choice string
}

// ScopedFilter is a filter expression together with the leaf index range
// [From, To) of the branch tree it applies to. A filter whose range covers
// the whole tree rejects rows; one scoped to a slave subtree nullifies that
// subtree's bindings instead (the FaN treatment of Section 5.2).
type ScopedFilter struct {
	Expr     sparql.Expr
	From, To int
}

// NormalizeUNF rewrites an arbitrary BGP/OPT/UNION/FILTER tree into UNION
// normal form: a list of union-free branches. The rewrite applies the five
// equivalences of Section 5.2: unions distribute out of joins (1), out of
// the left side of left-joins (2), and out of the right side of left-joins
// (3, flagged because it may require spurious-result removal); filters
// distribute over unions (5) and remain attached to their scope, which
// subsumes the push-in rule (4) under the safe-filter assumption.
func NormalizeUNF(t Tree) ([]*Branch, error) {
	dbs := distribute(t)
	branches := make([]*Branch, 0, len(dbs))
	for _, db := range dbs {
		pure, filters, err := extractFilters(db.tree)
		if err != nil {
			return nil, err
		}
		branches = append(branches, &Branch{
			Tree:           pure,
			Filters:        filters,
			UsedRule3:      db.rule3,
			DupGroup:       db.group,
			DupSplits:      db.splits,
			SynthWitnesses: db.wits,
		})
	}
	return branches, nil
}

// distBranch is one branch of the union distribution, carrying the rule-3
// bookkeeping NormalizeUNF exposes on Branch.
type distBranch struct {
	tree   Tree
	rule3  bool
	group  string // structural group id; "*" marks a rule-3 split point
	splits []DupSplit
	// wits carries the branch's synthetic witnesses with TPs relative to
	// tree's own leaf order; parents shift them as the subtree is embedded.
	wits []SynthWitness
}

func concatSplits(a, b []DupSplit) []DupSplit {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]DupSplit, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// shiftWits re-bases witness pattern indexes by `by` leaves (the subtree
// they index into was embedded to the right of `by` patterns). Always
// copies, so distBranches sharing a sub-result never alias.
func shiftWits(ws []SynthWitness, by int) []SynthWitness {
	if len(ws) == 0 {
		return nil
	}
	out := make([]SynthWitness, len(ws))
	for i, w := range ws {
		tps := make([]int, len(w.TPs))
		for k, tp := range w.TPs {
			tps[k] = tp + by
		}
		out[i] = SynthWitness{Var: w.Var, TPs: tps}
	}
	return out
}

// concatWits appends b to a into a fresh slice (never aliasing either).
func concatWits(a, b []SynthWitness) []SynthWitness {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]SynthWitness, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// masterPartTPs returns the leaf-order indexes and the variables of t's
// master part: the patterns not under the right side of any LeftJoin of t.
// These are exactly the patterns that must all match for (this rule-3
// alternative of) t to have matched — a failing nested OPTIONAL inside t
// does not fail t itself.
func masterPartTPs(t Tree) ([]int, map[sparql.Var]bool) {
	var tps []int
	vars := map[sparql.Var]bool{}
	idx := 0
	var walk func(n Tree, slave bool)
	walk = func(n Tree, slave bool) {
		switch m := n.(type) {
		case *Leaf:
			for _, tp := range m.Patterns {
				if !slave {
					tps = append(tps, idx)
					for _, v := range tp.Vars() {
						vars[v] = true
					}
				}
				idx++
			}
		case *Join:
			walk(m.L, slave)
			walk(m.R, slave)
		case *LeftJoin:
			walk(m.L, slave)
			walk(m.R, true)
		case *FilterT:
			walk(m.Child, slave)
		case *UnionT:
			for _, a := range m.Alts {
				walk(a, slave)
			}
		}
	}
	walk(t, false)
	return tps, vars
}

// distribute pushes unions to the top. It returns one distBranch per union
// branch, with FilterT nodes kept in place. The group ids mirror the tree
// structure: alternatives of a genuine union get distinct "U<i>:" prefixes
// while the right-side choices of a rule-3 split collapse into a single
// "*", so branches share a group exactly when rule 3 is the only thing
// that distinguishes them; each split's per-branch choice is recorded in
// splits, with split IDs assigned per splitting tree node so the same
// split point carries the same ID in every branch.
func distribute(t Tree) []distBranch {
	nextSplit := 0
	return distributeWalk(t, &nextSplit)
}

func distributeWalk(t Tree, nextSplit *int) []distBranch {
	switch n := t.(type) {
	case *Leaf:
		return []distBranch{{tree: n, group: "."}}
	case *FilterT:
		subs := distributeWalk(n.Child, nextSplit)
		out := make([]distBranch, len(subs))
		for i, s := range subs {
			out[i] = s
			out[i].tree = &FilterT{Expr: n.Expr, Child: s.tree} // rule 5
		}
		return out
	case *Join:
		ls := distributeWalk(n.L, nextSplit)
		rs := distributeWalk(n.R, nextSplit)
		var out []distBranch
		for _, l := range ls {
			nl := len(TreePatterns(l.tree))
			for _, r := range rs {
				out = append(out, distBranch{
					tree:   &Join{L: CloneTree(l.tree), R: CloneTree(r.tree)}, // rule 1
					rule3:  l.rule3 || r.rule3,
					group:  "(" + l.group + " J " + r.group + ")",
					splits: concatSplits(l.splits, r.splits),
					wits:   concatWits(l.wits, shiftWits(r.wits, nl)),
				})
			}
		}
		return out
	case *LeftJoin:
		ls := distributeWalk(n.L, nextSplit)
		rs := distributeWalk(n.R, nextSplit)
		rightSplit := len(rs) > 1 // rule 3 in effect
		var splitID string
		if rightSplit {
			splitID = fmt.Sprintf("r3:%d", *nextSplit)
			*nextSplit++
		}
		var out []distBranch
		for _, l := range ls {
			nl := len(TreePatterns(l.tree))
			leftVars := TreeVars(l.tree)
			// The distributed subtree's own variables witness its failure.
			// Variables shared with the left side stay bound on failure, so
			// they cannot witness and are excluded.
			var own []sparql.Var
			// synths[j] is the synthetic witness of alternative j, minted
			// when j's master part binds no variable of its own: without
			// one, a matched row and a failure artifact of that
			// alternative would render identically and the minimum union
			// could drop or duplicate the bare-master row. Every branch of
			// the group shares the full witness variable set (own plus all
			// alternatives' synthetic witnesses), so witness columns align
			// across branches.
			var synths []SynthWitness
			if rightSplit {
				ownSet := TreeVars(n.R)
				for v := range leftVars {
					delete(ownSet, v)
				}
				for v := range ownSet {
					own = append(own, v)
				}
				synths = make([]SynthWitness, len(rs))
				for j, r := range rs {
					tps, mvars := masterPartTPs(r.tree)
					witnessless := true
					for v := range mvars {
						if !leftVars[v] {
							witnessless = false
							break
						}
					}
					if witnessless {
						wv := SynthWitnessVar(splitID, j)
						synths[j] = SynthWitness{Var: wv, TPs: tps}
						own = append(own, wv)
					}
				}
				sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
			}
			for j, r := range rs {
				db := distBranch{
					tree:   &LeftJoin{L: CloneTree(l.tree), R: CloneTree(r.tree)}, // rules 2 and 3
					rule3:  l.rule3 || r.rule3 || rightSplit,
					splits: concatSplits(l.splits, r.splits),
					wits:   concatWits(l.wits, shiftWits(r.wits, nl)),
				}
				if rightSplit {
					db.group = "(" + l.group + " L *)"
					db.splits = append(append([]DupSplit{}, db.splits...),
						DupSplit{ID: splitID, Vars: own, Choice: fmt.Sprintf("%d:%s", j, r.group)})
					if synths[j].Var != "" {
						db.wits = append(db.wits, shiftWits([]SynthWitness{synths[j]}, nl)...)
					}
				} else {
					db.group = "(" + l.group + " L " + r.group + ")"
				}
				out = append(out, db)
			}
		}
		return out
	case *UnionT:
		var out []distBranch
		for ai, a := range n.Alts {
			for _, s := range distributeWalk(a, nextSplit) {
				s.group = fmt.Sprintf("U%d:%s", ai, s.group)
				out = append(out, s)
			}
		}
		return out
	}
	panic(fmt.Sprintf("algebra: distribute on %T", t))
}

// extractFilters removes FilterT nodes from a union-free tree, returning
// the pure tree and the filters annotated with the leaf ranges of their
// former child subtrees. Leaf order is unchanged by the removal, so the
// ranges remain valid against the pure tree.
func extractFilters(t Tree) (Tree, []ScopedFilter, error) {
	var filters []ScopedFilter
	var walk func(Tree, int) (Tree, int, error) // returns pure subtree and #leaves under it
	walk = func(t Tree, leafStart int) (Tree, int, error) {
		switch n := t.(type) {
		case *Leaf:
			return n, 1, nil
		case *Join:
			l, nl, err := walk(n.L, leafStart)
			if err != nil {
				return nil, 0, err
			}
			r, nr, err := walk(n.R, leafStart+nl)
			if err != nil {
				return nil, 0, err
			}
			return &Join{L: l, R: r}, nl + nr, nil
		case *LeftJoin:
			l, nl, err := walk(n.L, leafStart)
			if err != nil {
				return nil, 0, err
			}
			r, nr, err := walk(n.R, leafStart+nl)
			if err != nil {
				return nil, 0, err
			}
			return &LeftJoin{L: l, R: r}, nl + nr, nil
		case *FilterT:
			child, nc, err := walk(n.Child, leafStart)
			if err != nil {
				return nil, 0, err
			}
			filters = append(filters, ScopedFilter{Expr: n.Expr, From: leafStart, To: leafStart + nc})
			return child, nc, nil
		case *UnionT:
			return nil, 0, fmt.Errorf("algebra: union survived distribution")
		}
		return nil, 0, fmt.Errorf("algebra: unknown node %T", t)
	}
	pure, _, err := walk(t, 0)
	if err != nil {
		return nil, nil, err
	}
	return pure, filters, nil
}

// UnsafeFilterError reports a filter expression outside the supported
// core: one of its variables is bound by a triple pattern elsewhere in
// the branch but not inside the filter's own scope. The server maps this
// to a structured 400 carrying the offending expression.
type UnsafeFilterError struct {
	Var  sparql.Var
	Expr sparql.Expr
}

func (e *UnsafeFilterError) Error() string {
	return fmt.Sprintf("algebra: unsafe filter: ?%s is bound outside the scope of FILTER(%s)",
		e.Var, e.Expr)
}

// CheckSafeFilters verifies the supported filter-scope condition, a
// relaxation of the safe-filter condition of Section 5.2: every variable
// of each filter must either occur in a triple pattern of the subtree the
// filter scopes over, or occur in no pattern of the branch at all — a
// variable nothing can bind is permanently unbound, which the evaluator's
// SPARQL unbound semantics (type error, row drops unless guarded by
// bound()/||) handle exactly. What remains unsupported is a variable
// bound elsewhere in the branch but outside the filter's scope: the
// engine evaluates filters over merged rows where such a variable is
// bound, while the W3C algebra evaluates the filter group-locally where
// it is not. That residue reports a typed *UnsafeFilterError. It must run
// on a Branch produced by NormalizeUNF.
func (b *Branch) CheckSafeFilters() error {
	leaves := Leaves(b.Tree)
	bound := TreeVars(b.Tree)
	for _, sf := range b.Filters {
		inScope := map[sparql.Var]bool{}
		for i := sf.From; i < sf.To && i < len(leaves); i++ {
			for _, tp := range leaves[i].Patterns {
				for _, v := range tp.Vars() {
					inScope[v] = true
				}
			}
		}
		var vars []string
		for v := range sparql.ExprVars(sf.Expr) {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		for _, v := range vars {
			if !inScope[sparql.Var(v)] && bound[sparql.Var(v)] {
				return &UnsafeFilterError{Var: sparql.Var(v), Expr: sf.Expr}
			}
		}
	}
	return nil
}

// CheapSubst records one substitution SubstituteCheapFilters applied: the
// replaced variable, and either the concrete term or the surviving
// variable that took its place. Because the applied filters scope the
// whole tree, the equality holds in every result row, and the executor
// re-injects the replaced variable's binding (Term, or the row value of
// From) after the join — otherwise the column would silently stay NULL.
type CheapSubst struct {
	Var  sparql.Var
	Term rdf.Term   // zero when the substitution was variable-to-variable
	From sparql.Var // "" when the substitution was variable-to-term
}

// SubstituteCheapFilters applies the paper's "cheap" filter optimizations
// on a branch whose filter scopes the entire tree: an equality ?m = ?n
// replaces every ?n with ?m in the scoped patterns, and an equality
// ?v = <constant> replaces ?v with the constant. Applied filters are
// removed and returned as substitutions for the executor to re-inject.
// Only whole-tree scopes are rewritten; narrower scopes keep their
// filters for FaN evaluation.
//
// A substitution turns the general SPARQL equality into an exact-term
// pattern match, so it is only applied where the two provably agree:
//
//   - the substituted variable must occur in the branch's patterns (a
//     variable nothing binds is unbound: the equality is a type error
//     that drops every row, while a substitution would not);
//   - the variable must not occur in any other filter of the branch
//     (that filter would then evaluate the variable before the executor
//     re-injects its binding);
//   - for ?v = <constant>: the constant must not compare by value —
//     numeric and xsd:boolean literals equal distinct terms ("30" and
//     "30.0"^^xsd:decimal, "1" and "true"^^xsd:boolean), so those
//     equalities stay behind as row filters;
//   - for ?m = ?n: one of the variables must occur in a subject or
//     predicate position, which can only bind IRIs and blank nodes —
//     terms whose general equality is term identity. Two object-only
//     variables could both bind numeric literals, where a join on term
//     identity is narrower than equality by value.
//
// Everything not substituted is kept and evaluated as a per-row filter.
func (b *Branch) SubstituteCheapFilters() []CheapSubst {
	nLeaves := len(Leaves(b.Tree))
	inTree := TreeVars(b.Tree)
	otherFilterVars := func(skip int) map[sparql.Var]bool {
		vars := map[sparql.Var]bool{}
		for j, sf := range b.Filters {
			if j == skip {
				continue
			}
			sf.Expr.Vars(vars)
		}
		return vars
	}
	var kept []ScopedFilter
	var substs []CheapSubst
	for i, sf := range b.Filters {
		if sf.From != 0 || sf.To != nLeaves {
			kept = append(kept, sf)
			continue
		}
		cmp, ok := sf.Expr.(sparql.Cmp)
		if !ok || cmp.Op != sparql.OpEq {
			kept = append(kept, sf)
			continue
		}
		lv, lIsVar := cmp.L.(sparql.ExprVar)
		rv, rIsVar := cmp.R.(sparql.ExprVar)
		elsewhere := otherFilterVars(i)
		switch {
		case lIsVar && rIsVar:
			if !inTree[lv.V] || !inTree[rv.V] || elsewhere[lv.V] || elsewhere[rv.V] ||
				!(occursNonObject(b.Tree, lv.V) || occursNonObject(b.Tree, rv.V)) {
				kept = append(kept, sf)
				continue
			}
			substituteVar(b.Tree, rv.V, sparql.V(string(lv.V)))
			substs = append(substs, CheapSubst{Var: rv.V, From: lv.V})
		case lIsVar:
			if term, ok := cmp.R.(sparql.ExprTerm); ok &&
				inTree[lv.V] && !elsewhere[lv.V] && !valueComparableTerm(term.Term) {
				substituteVar(b.Tree, lv.V, sparql.TermNode(term.Term))
				substs = append(substs, CheapSubst{Var: lv.V, Term: term.Term})
			} else {
				kept = append(kept, sf)
			}
		case rIsVar:
			if term, ok := cmp.L.(sparql.ExprTerm); ok &&
				inTree[rv.V] && !elsewhere[rv.V] && !valueComparableTerm(term.Term) {
				substituteVar(b.Tree, rv.V, sparql.TermNode(term.Term))
				substs = append(substs, CheapSubst{Var: rv.V, Term: term.Term})
			} else {
				kept = append(kept, sf)
			}
		default:
			kept = append(kept, sf)
		}
	}
	b.Filters = kept
	b.Substs = append(b.Substs, substs...)
	return substs
}

// occursNonObject reports whether v appears in a subject or predicate
// position of the tree's patterns.
func occursNonObject(t Tree, v sparql.Var) bool {
	for _, l := range Leaves(t) {
		for _, tp := range l.Patterns {
			if (tp.S.IsVar && tp.S.Var == v) || (tp.P.IsVar && tp.P.Var == v) {
				return true
			}
		}
	}
	return false
}

// valueComparableTerm reports whether SPARQL equality against t can hold
// for a term other than t itself: number-shaped literals compare by
// numeric value and xsd:boolean literals by boolean value, so an
// exact-term substitution would under-match them. The check is
// conservative (any parseable number, any xsd:boolean) — a false positive
// just keeps the filter on the slower row path.
func valueComparableTerm(t rdf.Term) bool {
	if t.Kind != rdf.Literal || t.Lang != "" {
		return false
	}
	if t.Datatype == "http://www.w3.org/2001/XMLSchema#boolean" {
		return true
	}
	_, err := strconv.ParseFloat(t.Value, 64)
	return err == nil
}

func substituteVar(t Tree, v sparql.Var, repl sparql.Node) {
	for _, l := range Leaves(t) {
		for i := range l.Patterns {
			tp := &l.Patterns[i]
			for _, pos := range []*sparql.Node{&tp.S, &tp.P, &tp.O} {
				if pos.IsVar && pos.Var == v {
					*pos = repl
				}
			}
		}
	}
}
