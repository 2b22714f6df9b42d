package engine

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The BitMat layout is two-dimensional per predicate, so a triple pattern
// with three variables (?s ?p ?o) has no single matrix to load — the
// paper's system rejects it outright. The store instead evaluates it as a
// union of per-predicate scans: the branch is cloned once per predicate
// with the pattern's P position fixed to that predicate, and the predicate
// variable is injected into each result row after the join ("forced"
// bindings below). Section 4's per-predicate S-O BitMats make each clone a
// plain two-variable scan, so the whole union costs one pass over the
// index — exactly the shape of the canonical dump query
// SELECT * WHERE { ?s ?p ?o }.

// execBranch is a union-free branch ready to execute, together with the
// bindings its per-predicate rewrite fixed.
type execBranch struct {
	b *algebra.Branch
	// forced holds one entry per rewritten three-variable pattern: when
	// pattern tp matched in a result row, variable v is bound to the
	// pattern's predicate.
	forced []forcedBinding
	// substCells holds the cell of each b.Substs term (0 for a
	// variable-to-variable substitution), encoded when the query is
	// prepared.
	substCells []uint32
	// dupSplits extends b.DupSplits for patterns expanded under an
	// OPTIONAL: one split per expanded pattern, whose witnesses are the
	// pattern-owned variables (the predicate variable plus any variable
	// occurring nowhere else) and whose choice is the predicate. Identical
	// rows across per-predicate branches whose pattern failed are rewrite
	// artifacts to collapse, exactly like rule-3 splits.
	dupSplits []algebra.DupSplit
}

type forcedBinding struct {
	v    sparql.Var
	cell uint32 // the predicate's cell
	tp   int    // global pattern index (tree leaf order)
}

// forcedSlot is a forcedBinding resolved against one execution's stps
// order and row layout.
type forcedSlot struct {
	pos  int // stps position of the rewritten pattern
	col  int // result-row column of the forced variable
	sn   int // the pattern's supernode
	cell uint32
}

// dupMeta is one branch's rule-3 collapse scope resolved against the
// result-row layout: the distribution group and, per split, the row
// columns of that split's witness variables plus the choice the branch
// took there. Splits are sorted by ID so keys align across branches even
// when nested splits give branches different split counts.
type dupMeta struct {
	group  string
	splits []dupMetaSplit
}

type dupMetaSplit struct {
	id     string
	cols   []int
	choice string
}

// dupMetaFor resolves a branch's DupGroup/DupSplits (plus the
// expansion's extra splits) against the result columns. nil means the
// branch has no rule-3 ancestry and its rows never collapse.
func dupMetaFor(eb execBranch, varPos map[sparql.Var]int) *dupMeta {
	if len(eb.b.DupSplits) == 0 && len(eb.dupSplits) == 0 {
		return nil
	}
	m := &dupMeta{group: eb.b.DupGroup}
	add := func(sp algebra.DupSplit) {
		ms := dupMetaSplit{id: sp.ID, choice: sp.Choice}
		for _, v := range sp.Vars {
			if c, ok := varPos[v]; ok {
				ms.cols = append(ms.cols, c)
			}
		}
		m.splits = append(m.splits, ms)
	}
	for _, sp := range eb.b.DupSplits {
		add(sp)
	}
	for _, sp := range eb.dupSplits {
		add(sp)
	}
	sort.Slice(m.splits, func(i, j int) bool { return m.splits[i].id < m.splits[j].id })
	return m
}

// resolveForced maps an execBranch's forced bindings onto an execution's
// sorted pattern order and variable columns.
func resolveForced(eb execBranch, stps []*tpState, varIdx map[sparql.Var]int) []forcedSlot {
	var out []forcedSlot
	for _, fb := range eb.forced {
		col, ok := varIdx[fb.v]
		if !ok {
			continue
		}
		for j, st := range stps {
			if st.idx == fb.tp {
				out = append(out, forcedSlot{pos: j, col: col, sn: st.sn, cell: fb.cell})
				break
			}
		}
	}
	return out
}

// witnessMatched is the term whose cell is forced into a synthetic witness
// column when its alternative matched. The value is internal: witness
// columns are stripped before projection and never serialize.
var witnessMatched = rdf.NewIRI("urn:lbr:witness")

// witnessSlot is one branch SynthWitness resolved against an execution's
// sorted pattern order and (hidden-column-extended) row layout: the
// witness binds when every anchor pattern matched and none of their
// supernodes failed.
type witnessSlot struct {
	col  int   // result-row column of the hidden witness variable
	poss []int // stps positions of the anchor patterns
	sns  []int // the anchors' supernodes, aligned with poss
}

// resolveWitnesses maps a branch's synthetic witnesses onto an execution's
// pattern order and row layout. Witness variables absent from varIdx (the
// streaming path's public-only layout, where rule-3 branches never run)
// resolve to nothing.
func resolveWitnesses(eb execBranch, stps []*tpState, varIdx map[sparql.Var]int) []witnessSlot {
	var out []witnessSlot
	for _, w := range eb.b.SynthWitnesses {
		col, ok := varIdx[w.Var]
		if !ok {
			continue
		}
		ws := witnessSlot{col: col}
		for _, tp := range w.TPs {
			for j, st := range stps {
				if st.idx == tp {
					ws.poss = append(ws.poss, j)
					ws.sns = append(ws.sns, st.sn)
					break
				}
			}
		}
		if len(ws.poss) == len(w.TPs) && len(ws.poss) > 0 {
			out = append(out, ws)
		}
	}
	return out
}

// maxFullScanBranches caps the expansion: several three-variable patterns
// multiply the branch count by the predicate cardinality each, and an
// unbounded cross product could exhaust memory before the user sees a row.
const maxFullScanBranches = 65536

// expandFullScans rewrites every branch containing three-variable patterns
// into its per-predicate union; branches without such patterns pass
// through untouched.
func (e *Engine) expandFullScans(branches []*algebra.Branch) ([]execBranch, error) {
	out := make([]execBranch, 0, len(branches))
	for _, b := range branches {
		ebs, err := e.expandBranch(b)
		if err != nil {
			return nil, err
		}
		out = append(out, ebs...)
	}
	return out, nil
}

func (e *Engine) expandBranch(b *algebra.Branch) ([]execBranch, error) {
	pats := algebra.TreePatterns(b.Tree)
	occur := map[sparql.Var]int{}
	for _, tp := range pats {
		for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				occur[n.Var]++
			}
		}
	}
	var targets []int
	for i, tp := range pats {
		if tp.S.IsVar && tp.P.IsVar && tp.O.IsVar {
			// A predicate variable that occurs anywhere else is a join on
			// the predicate dimension; the rewrite would silently drop the
			// join, so reject it the way BuildGoJ does for un-rewritten
			// patterns.
			if occur[tp.P.Var] > 1 {
				return nil, algebra.ErrPredicateJoin
			}
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return []execBranch{{b: b}}, nil
	}
	nPred := e.dict.NumPredicates()
	predCells := e.cellTables().pred
	work := []execBranch{{b: b}}
	for _, ti := range targets {
		if len(work)*nPred > maxFullScanBranches {
			return nil, fmt.Errorf("%w: %d three-variable patterns over %d predicates exceeds %d branches",
				ErrExpansionTooLarge, len(targets), nPred, maxFullScanBranches)
		}
		pv := pats[ti].P.Var
		// A rewritten pattern inside an OPTIONAL mirrors rewrite rule 3
		// (distributing a union out of a LeftJoin's right side): the union
		// of the per-predicate branches can contain subsumed rows, so the
		// caller must run cross-branch best-match.
		underOpt := patternUnderOptionalRight(b.Tree, ti)
		var witness []sparql.Var
		if underOpt {
			witness = append(witness, pv)
			for _, n := range []sparql.Node{pats[ti].S, pats[ti].O} {
				if n.IsVar && occur[n.Var] == 1 {
					witness = append(witness, n.Var)
				}
			}
		}
		next := make([]execBranch, 0, len(work)*nPred)
		for _, eb := range work {
			for p := 1; p <= nPred; p++ {
				term, err := e.dict.Predicate(rdf.ID(p))
				if err != nil {
					return nil, err
				}
				nb := &algebra.Branch{
					Tree:      algebra.CloneTree(eb.b.Tree),
					Filters:   eb.b.Filters,
					UsedRule3: eb.b.UsedRule3 || underOpt,
					DupGroup:  eb.b.DupGroup,
					DupSplits: eb.b.DupSplits,
					Substs:    eb.b.Substs,
					// The expansion fixes predicates in place without
					// reordering leaves, so witness pattern indexes stay
					// valid in every per-predicate clone.
					SynthWitnesses: eb.b.SynthWitnesses,
				}
				setPatternPredicate(nb.Tree, ti, term)
				forced := make([]forcedBinding, len(eb.forced), len(eb.forced)+1)
				copy(forced, eb.forced)
				forced = append(forced, forcedBinding{v: pv, cell: predCells[p], tp: ti})
				splits := eb.dupSplits
				if underOpt {
					splits = make([]algebra.DupSplit, len(eb.dupSplits), len(eb.dupSplits)+1)
					copy(splits, eb.dupSplits)
					splits = append(splits, algebra.DupSplit{
						ID:     fmt.Sprintf("fs:%d", ti),
						Vars:   witness,
						Choice: fmt.Sprintf("%d", p),
					})
				}
				next = append(next, execBranch{b: nb, forced: forced, dupSplits: splits})
			}
		}
		work = next
	}
	return work, nil
}

// patternUnderOptionalRight reports whether the target-th pattern (tree
// leaf order) lies in the right — slave — side of some LeftJoin of t.
func patternUnderOptionalRight(t algebra.Tree, target int) bool {
	idx, found := 0, false
	var walk func(n algebra.Tree, opt bool)
	walk = func(n algebra.Tree, opt bool) {
		switch m := n.(type) {
		case *algebra.Leaf:
			for range m.Patterns {
				if idx == target && opt {
					found = true
				}
				idx++
			}
		case *algebra.Join:
			walk(m.L, opt)
			walk(m.R, opt)
		case *algebra.LeftJoin:
			walk(m.L, opt)
			walk(m.R, true)
		}
	}
	walk(t, false)
	return found
}

// setPatternPredicate fixes the predicate position of the target-th
// pattern (tree leaf order) to a concrete term. The tree is a post-UNF
// clone, so only Leaf/Join/LeftJoin nodes occur.
func setPatternPredicate(t algebra.Tree, target int, term rdf.Term) {
	idx := 0
	var walk func(n algebra.Tree)
	walk = func(n algebra.Tree) {
		switch m := n.(type) {
		case *algebra.Leaf:
			for i := range m.Patterns {
				if idx == target {
					m.Patterns[i].P = sparql.TermNode(term)
				}
				idx++
			}
		case *algebra.Join:
			walk(m.L)
			walk(m.R)
		case *algebra.LeftJoin:
			walk(m.L)
			walk(m.R)
		}
	}
	walk(t)
}
