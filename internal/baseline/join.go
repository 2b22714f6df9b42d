package baseline

import (
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// sharedVars returns the variables common to two relations.
func sharedVars(l, r *relation) []sparql.Var {
	var out []sparql.Var
	for _, v := range l.vars {
		if _, ok := r.pos[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// outVars returns l's vars followed by r's vars not in l.
func outVars(l, r *relation) []sparql.Var {
	out := append([]sparql.Var(nil), l.vars...)
	for _, v := range r.vars {
		if _, ok := l.pos[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}

// hashJoin joins two relations on their shared variables. With leftOuter
// set, unmatched left rows survive with NULLs in the right-only columns.
// Keys are null-intolerant: a NULL in a shared column never matches (the
// relational treatment of Appendix C, which coincides with SPARQL on
// well-designed queries).
func hashJoin(l, r *relation, leftOuter bool) *relation {
	shared := sharedVars(l, r)
	out := newRelation(outVars(l, r))

	// Indices of shared vars in each side and of right-only columns.
	lk := make([]int, len(shared))
	rk := make([]int, len(shared))
	for i, v := range shared {
		lk[i] = l.pos[v]
		rk[i] = r.pos[v]
	}
	var rOnly []int
	for _, v := range r.vars {
		if _, ok := l.pos[v]; !ok {
			rOnly = append(rOnly, r.pos[v])
		}
	}

	type key string
	mkKey := func(row []val, cols []int) (key, bool) {
		b := make([]byte, 0, len(cols)*8)
		for _, c := range cols {
			v := row[c]
			if v == 0 {
				return "", false // null-intolerant
			}
			for sh := 0; sh < 64; sh += 8 {
				b = append(b, byte(v>>uint(sh)))
			}
		}
		return key(b), true
	}

	// Build on the smaller side unless the outer join pins the left as the
	// probe side's preserved relation; building on the right keeps the
	// left-outer logic simple.
	build := map[key][][]val{}
	for _, row := range r.rows {
		if k, ok := mkKey(row, rk); ok {
			build[k] = append(build[k], row)
		}
	}
	for _, lrow := range l.rows {
		k, ok := mkKey(lrow, lk)
		var matches [][]val
		if ok {
			matches = build[k]
		}
		if len(matches) == 0 {
			if leftOuter {
				row := make([]val, len(out.vars))
				copy(row, lrow)
				// Right-only columns stay 0 (NULL).
				out.rows = append(out.rows, row)
			}
			continue
		}
		for _, rrow := range matches {
			row := make([]val, len(out.vars))
			copy(row, lrow)
			for i, c := range rOnly {
				row[len(l.vars)+i] = rrow[c]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// unionRel concatenates two relations over the union of their schemas;
// missing columns become NULL (SPARQL bag-semantics union).
func unionRel(a, b *relation) *relation {
	out := newRelation(outVars(a, b))
	add := func(rel *relation) {
		cols := make([]int, len(out.vars))
		for i, v := range out.vars {
			if p, ok := rel.pos[v]; ok {
				cols[i] = p
			} else {
				cols[i] = -1
			}
		}
		for _, row := range rel.rows {
			nr := make([]val, len(out.vars))
			for i, c := range cols {
				if c >= 0 {
					nr[i] = row[c]
				}
			}
			out.rows = append(out.rows, nr)
		}
	}
	add(a)
	add(b)
	return out
}

// relCtx converts a relation's columns into a sideways-pushdown context.
func relCtx(rel *relation) ctx {
	c := ctx{}
	for i, v := range rel.vars {
		set := valSet{}
		for _, row := range rel.rows {
			if row[i] != 0 {
				set[row[i]] = struct{}{}
			}
		}
		if len(set) > 0 {
			c[v] = set
		}
	}
	return c
}

// mergeCtx overlays b on a (b wins on conflicts); either may be nil.
func mergeCtx(a, b ctx) ctx {
	if a == nil {
		return b
	}
	out := ctx{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// filterRel keeps the rows satisfying the expression, evaluated with the
// LBR engine's FILTER semantics (engine.EvalFilter) so that both engines
// answer every filtered query alike.
func (e *Engine) filterRel(rel *relation, expr sparql.Expr) *relation {
	out := newRelation(rel.vars)
	var row []val // the row lookup reads: the loop's current one
	lookup := func(v sparql.Var) rdf.Term {
		if p, ok := rel.pos[v]; ok && row[p] != 0 {
			return e.valTerm(row[p])
		}
		return rdf.Term{}
	}
	for _, row = range rel.rows {
		if engine.EvalFilter(expr, lookup) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func projectRel(rel *relation, keep []sparql.Var) *relation {
	var vars []sparql.Var
	var cols []int
	for _, v := range keep {
		if p, ok := rel.pos[v]; ok {
			vars = append(vars, v)
			cols = append(cols, p)
		}
	}
	out := newRelation(vars)
	for _, row := range rel.rows {
		nr := make([]val, len(cols))
		for i, c := range cols {
			nr[i] = row[c]
		}
		out.rows = append(out.rows, nr)
	}
	return out
}
