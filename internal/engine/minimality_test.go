package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/planner"
	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// TestLemma33MinimalityProperty checks Definition 3.2 / Lemma 3.3: for
// acyclic well-designed queries, after prune_triples every triple left in a
// pattern's BitMat instantiates that pattern in at least one final result.
func TestLemma33MinimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		g := difftest.Graph(rng, 25+rng.Intn(50))
		src, _ := difftest.Query(rng, difftest.WellDesigned)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := algebra.FromQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		gosn, err := algebra.BuildGoSN(tree)
		if err != nil {
			t.Fatal(err)
		}
		goj, err := algebra.BuildGoJ(gosn.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		if goj.Cyclic {
			continue // Lemma 3.3 covers acyclic queries only
		}
		idx, err := bitmat.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		e := New(idx, Options{})
		plan := planner.BuildPlan(gosn, goj, EstimateCounts(idx, gosn.Patterns))
		if plan.Greedy {
			continue // defensive fallback path, not the lemma's scope
		}
		// Run init + prune exactly as executeBranch does.
		tps := make([]*tpState, len(gosn.Patterns))
		abort := false
		for i, pat := range gosn.Patterns {
			st, err := e.load(pat, i, gosn.SNOfTP[i], plan, tps, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.activePrune(st, tps, plan)
			tps[i] = st
			if gosn.IsAbsoluteMaster(st.sn) && st.count() == 0 {
				abort = true
			}
		}
		if abort {
			continue
		}
		e.pruneTriples(context.Background(), plan, tps, nil)

		// Reference results give the ground-truth projections.
		maps, _, err := ref.New(g).Execute(q)
		if err != nil {
			t.Fatal(err)
		}

		dict := idx.Dictionary()
		for i, st := range tps {
			if st.mat == nil {
				continue
			}
			pat := gosn.Patterns[i]
			// Allowed coordinate pairs: instantiations of the pattern by
			// result mappings binding all its variables.
			allowed := map[[2]int]bool{}
			for _, m := range maps {
				rIdx, cIdx, ok := instantiate(st, pat, m, dict)
				if ok {
					allowed[[2]int{rIdx, cIdx}] = true
				}
			}
			st.mat.ForEach(func(r, c int) bool {
				if !allowed[[2]int{r, c}] {
					t.Errorf("trial %d: pattern %q keeps non-minimal triple (%d,%d)\nquery: %s",
						trial, pat, r, c, src)
					return false
				}
				return true
			})
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d pattern checks ran; generator too restrictive", checked)
	}
}

// instantiate maps a result mapping to the matrix coordinates it implies
// for the pattern, if the mapping binds all the pattern's variables.
func instantiate(st *tpState, pat sparql.TriplePattern, m ref.Mapping, dict *rdf.Dictionary) (int, int, bool) {
	termAt := func(n sparql.Node) (rdf.Term, bool) {
		if !n.IsVar {
			return n.Term, true
		}
		t, ok := m[n.Var]
		return t, ok
	}
	coord := func(v sparql.Var, space Space) (int, bool) {
		var n sparql.Node
		switch {
		case pat.S.IsVar && pat.S.Var == v:
			n = pat.S
		case pat.O.IsVar && pat.O.Var == v:
			n = pat.O
		case pat.P.IsVar && pat.P.Var == v:
			n = pat.P
		default:
			return 0, false
		}
		term, ok := termAt(n)
		if !ok {
			return 0, false
		}
		var id rdf.ID
		switch space {
		case SpaceSO:
			id = dict.SOID(term)
		case SpaceP:
			id = dict.PredicateID(term)
		}
		if id == 0 {
			return 0, false
		}
		return int(id) - 1, true
	}
	rIdx := 0
	if st.rowVar != "" {
		var ok bool
		rIdx, ok = coord(st.rowVar, st.rowSpace)
		if !ok {
			return 0, 0, false
		}
	}
	cIdx := 0
	if st.colVar != "" {
		var ok bool
		cIdx, ok = coord(st.colVar, st.colSpace)
		if !ok {
			return 0, 0, false
		}
	}
	return rIdx, cIdx, true
}

// TestPruningNeverDropsResults is the safety direction of minimality: with
// pruning on, results must equal the no-pruning results (pruning removes
// only non-contributing triples).
func TestPruningNeverDropsResults(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		g := difftest.Graph(rng, 20+rng.Intn(60))
		src, _ := difftest.Query(rng, difftest.WellDesigned)
		e1 := engineOver(t, g, Options{})
		e2 := engineOver(t, g, Options{DisablePruning: true, DisableActivePruning: true})
		r1, err := e1.ExecuteString(src)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.ExecuteString(src)
		if err != nil {
			t.Fatal(err)
		}
		a := rowsAsStrings(r1)
		b := rowsAsStrings(r2)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: pruning changed results\nquery: %s\nwith:    %v\nwithout: %v",
				trial, src, a, b)
		}
	}
}
