package lbr

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// storeSweep builds one store per worker count over triples and runs
// every query through each: every run must agree with the reference
// evaluator as a sorted multiset, and the rendered result must be
// byte-identical to the first worker count's. check, when non-nil,
// inspects each rendering.
//
// One more store is built over the first half of the triples and gets
// the rest through ApplyUpdate, never compacted, so base terms gain their
// second role in the delta overlay; its rows must agree with the
// reference too. On every query in the baseline's domain
// (difftest.BaselineDomain) the baseline is the third opinion, under both
// policies, on the first built store and on the delta store; at least
// minDomain percent of the queries must be in that domain.
func storeSweep(t *testing.T, triples []Triple, queries []string, workers []int, minDomain int, check func(src, rendered string)) {
	t.Helper()
	g := rdf.NewGraph()
	g.AddAll(triples)
	stores := make([]*Store, len(workers))
	for i, w := range workers {
		stores[i] = NewStoreWithOptions(Options{Workers: w})
		stores[i].AddAll(triples)
		if err := stores[i].Build(); err != nil {
			t.Fatal(err)
		}
	}
	delta := NewStoreWithOptions(Options{Workers: workers[0]})
	half := len(triples) / 2
	delta.AddAll(triples[:half])
	if err := delta.Build(); err != nil {
		t.Fatal(err)
	}
	var up strings.Builder
	up.WriteString("INSERT DATA {")
	for _, tr := range triples[half:] {
		fmt.Fprintf(&up, " %s %s %s .", tr.S, tr.P, tr.O)
	}
	up.WriteString(" }")
	if _, err := delta.ApplyUpdate(up.String()); err != nil {
		t.Fatal(err)
	}
	if delta.DeltaSize() == 0 && half < len(triples) {
		t.Fatal("the delta store compacted its update")
	}
	inDomain := 0
	for qi, src := range queries {
		q, want, vars := difftest.RefSrc(t, g, src)
		first := ""
		for i, s := range stores {
			res, err := s.Query(src)
			if err != nil {
				t.Fatalf("query %d workers=%d on %q: %v", qi, workers[i], src, err)
			}
			if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows(), vars), want); v != "" {
				t.Fatalf("query %d workers=%d on %s: store vs reference: %s", qi, workers[i], src, v)
			}
			rendered := res.String()
			if check != nil {
				check(src, rendered)
			}
			if i == 0 {
				first = rendered
			} else if rendered != first {
				t.Fatalf("query %d workers=%d: rows diverge from workers=%d\nquery: %s",
					qi, workers[i], workers[0], src)
			}
		}
		res, err := delta.Query(src)
		if err != nil {
			t.Fatalf("query %d on the delta store, %q: %v", qi, src, err)
		}
		if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows(), vars), want); v != "" {
			t.Fatalf("query %d on the delta store, %s: store vs reference: %s", qi, src, v)
		}
		if !difftest.BaselineDomain(q) {
			continue
		}
		inDomain++
		for _, s := range []*Store{stores[0], delta} {
			for _, pol := range []BaselinePolicy{MonetDBLike, VirtuosoLike} {
				res, err := s.QueryBaseline(src, pol)
				if err != nil {
					t.Fatalf("query %d baseline %d on %q: %v", qi, pol, src, err)
				}
				if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows(), vars), want); v != "" {
					t.Fatalf("query %d baseline %d (delta store: %v) on %s: baseline vs reference: %s",
						qi, pol, s == delta, src, v)
				}
			}
		}
	}
	if inDomain*100 < minDomain*len(queries) {
		t.Fatalf("only %d of %d queries lie in the baseline's domain, want at least %d %%", inDomain, len(queries), minDomain)
	}
}

// TestDifferentialFilterWorkerSweep is the store-level harness of the
// filter evaluator: ~300 queries of the kit's Filter mix (comparisons
// with numeric promotion, arithmetic, regex, bound(), bare-EBV atoms,
// ill-typed mixes, nowhere-vars, operands only an OPTIONAL binds, and FaN
// filters inside OPTIONAL) through
// storeSweep at Workers ∈ {1, 2, 4, 8} — filters may not perturb row
// order or NULL cells. Runs under -race in CI (make test-filter), where
// the worker fan-out actually interleaves.
func TestDifferentialFilterWorkerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	g := difftest.Graph(rng, 72)
	trials := 300
	if testing.Short() {
		trials = 40
	}
	queries := make([]string, trials)
	filtered, overOpt := 0, 0
	for i := range queries {
		queries[i], _ = difftest.Query(rng, difftest.Filter)
		q, err := sparql.Parse(queries[i])
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", queries[i], err)
		}
		master, opt, used := map[sparql.Var]bool{}, map[sparql.Var]bool{}, map[sparql.Var]bool{}
		hasFilter := false
		for _, el := range q.Where.Elements {
			switch el := el.(type) {
			case sparql.TriplesBlock:
				maps.Copy(master, sparql.GroupVars(sparql.Group{Elements: []sparql.Element{el}}))
			case sparql.Optional:
				maps.Copy(opt, sparql.GroupVars(el.Group))
			case sparql.Filter:
				hasFilter = true
				maps.Copy(used, sparql.ExprVars(el.Expr))
			}
		}
		if hasFilter {
			filtered++
		}
		for v := range used {
			if opt[v] && !master[v] {
				overOpt++
				break
			}
		}
	}
	// The generator must actually exercise filters: at least half the
	// trials carry a group-level FILTER (OPTIONAL-local ones not counted),
	// and some of those test a variable only an OPTIONAL binds.
	if filtered < trials/2 || overOpt < trials/10 {
		t.Fatalf("of %d generated queries %d carried a top-level FILTER, %d over an OPTIONAL's variable",
			trials, filtered, overOpt)
	}
	storeSweep(t, g.Triples(), queries, []int{1, 2, 4, 8}, 90, nil)
}
