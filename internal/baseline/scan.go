package baseline

import (
	"repro/internal/bitmat"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// scan materializes the relation of one triple pattern, filtered by the
// sideways context when present.
func (e *Engine) scan(tp sparql.TriplePattern, c ctx) (*relation, error) {
	s, p, o, known := tp.IDs(e.dict)

	// Collect the variable schema. A repeated variable (?x p ?x) keeps one
	// column and the scan filters on equality.
	var vars []sparql.Var
	seen := map[sparql.Var]bool{}
	for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			vars = append(vars, n.Var)
		}
	}
	rel := newRelation(vars)
	if !known {
		return rel, nil
	}

	accept := func(vals map[sparql.Var]val) bool {
		for v, set := range c {
			if x, ok := vals[v]; ok {
				if _, hit := set[x]; !hit {
					return false
				}
			}
		}
		return true
	}
	emit := func(sv, pv, ov val) {
		vals := map[sparql.Var]val{}
		ok := true
		put := func(n sparql.Node, v val) {
			if !n.IsVar || !ok {
				return
			}
			if prev, dup := vals[n.Var]; dup {
				if prev != v {
					ok = false
				}
				return
			}
			vals[n.Var] = v
		}
		put(tp.S, sv)
		put(tp.P, pv)
		put(tp.O, ov)
		if !ok || !accept(vals) {
			return
		}
		row := make([]val, len(rel.vars))
		for i, v := range rel.vars {
			row[i] = vals[v]
		}
		rel.rows = append(rel.rows, row)
	}

	switch {
	case p != 0 && s == 0 && o == 0:
		// Predicate table scan, optionally via the O-S index when the
		// subject is unconstrained but the object is in context.
		for _, pr := range e.idx.SOPairs(p) {
			emit(mkVal(spcSO, rdf.ID(pr.A)), mkVal(spcP, p), mkVal(spcSO, rdf.ID(pr.B)))
		}
	case p != 0 && s != 0 && o == 0:
		for _, pr := range bitmat.PairRange(e.idx.SubjectPairs(s), uint32(p)) {
			emit(mkVal(spcSO, s), mkVal(spcP, p), mkVal(spcSO, rdf.ID(pr.B)))
		}
	case p != 0 && s == 0 && o != 0:
		for _, pr := range bitmat.PairRange(e.idx.OSPairs(p), uint32(o)) {
			emit(mkVal(spcSO, rdf.ID(pr.B)), mkVal(spcP, p), mkVal(spcSO, o))
		}
	case s != 0 && p == 0:
		for _, pr := range e.idx.SubjectPairs(s) {
			if o != 0 && pr.B != uint32(o) {
				continue
			}
			emit(mkVal(spcSO, s), mkVal(spcP, rdf.ID(pr.A)), mkVal(spcSO, rdf.ID(pr.B)))
		}
	case o != 0 && p == 0:
		for _, pr := range e.idx.ObjectPairs(o) {
			emit(mkVal(spcSO, rdf.ID(pr.B)), mkVal(spcP, rdf.ID(pr.A)), mkVal(spcSO, o))
		}
	case s != 0 && p != 0 && o != 0:
		if e.idx.Contains(s, p, o) {
			emit(mkVal(spcSO, s), mkVal(spcP, p), mkVal(spcSO, o))
		}
	default:
		// Three variables: the full-table dump as a union of per-predicate
		// scans, mirroring the LBR engine's rewrite of (?s ?p ?o).
		for pid := 1; pid <= e.dict.NumPredicates(); pid++ {
			for _, pr := range e.idx.SOPairs(rdf.ID(pid)) {
				emit(mkVal(spcSO, rdf.ID(pr.A)), mkVal(spcP, rdf.ID(pid)), mkVal(spcSO, rdf.ID(pr.B)))
			}
		}
	}
	return rel, nil
}
