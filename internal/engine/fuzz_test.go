package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// fuzzSeedQueries is the seed corpus: the query shapes that were tricky to
// get right in earlier PRs — the ?s ?p ?o expansion and its rule-3
// artifact collapse, self-join full scans, cheap-filter substitution,
// cyclic plans that force best-match, UNION-under-OPTIONAL, and genuine
// UNION whose branches must keep subsumed rows. The fuzzer mutates these
// into neighboring queries; everything that still parses (and stays
// well-designed) must agree with the reference evaluator.
var fuzzSeedQueries = []string{
	`SELECT * WHERE { ?s ?p ?o . }`,
	`SELECT * WHERE { ?x ?p ?x . }`,
	`ASK { ?s ?p ?o . }`,
	`SELECT * WHERE { ?s ?p ?o . ?s <p0> ?x . }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y ?p ?z . } }`,
	`SELECT * WHERE { ?x <p0> ?y . FILTER(?y = <e3>) }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <p1> ?z . FILTER(?z != <e1>) } }`,
	`SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?a . OPTIONAL { ?a <p3> ?x . } }`,
	`SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?a . OPTIONAL { ?a <p3> ?b . } }`,
	`SELECT * WHERE { { ?x <p0> ?y . } UNION { ?x <p1> ?y . } }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { { ?y <p1> ?z . } UNION { ?y <p2> ?z . } } }`,
	`SELECT * WHERE { { ?x <p0> ?y . OPTIONAL { ?y <p1> ?m . } } UNION { ?x <p2> ?y . } }`,
	`SELECT DISTINCT ?x WHERE { ?x <p0> ?y . } ORDER BY ?x`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?x <p1> ?m . OPTIONAL { ?m <p2> ?t . } } }`,
	// Cache-stressing shapes (PR 5): the same subpattern recurring across
	// UNION branches (per-query tier) and across the warm re-execution the
	// fuzz body runs over a shared MatCache (cross-query tier), plus the
	// same predicate used in both orientations so the orientation
	// component of the cache key carries weight.
	`SELECT * WHERE { { ?x <p0> ?y . ?y <p1> ?z . } UNION { ?x <p0> ?y . ?y <p2> ?z . } UNION { ?x <p0> ?y . } }`,
	`SELECT * WHERE { { ?a <p0> ?b . } UNION { ?b <p0> ?a . } }`,
	`SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?x . OPTIONAL { ?x <p1> ?m . } }`,
	`SELECT * WHERE { { ?s ?p ?o . } UNION { ?o ?q ?s . } }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <p0> ?z . } OPTIONAL { ?z <p0> ?w . } }`,
	// Filter-bearing seeds (PR 9): the general evaluator's surface —
	// numeric comparisons and arithmetic over typed <pa> integers, regex
	// over plain <pn> strings, bound() over OPTIONAL variables, bare-EBV
	// corners, FaN inside OPTIONAL, IRI ordering, a nowhere-var (always an
	// error: drops every row), and numeric promotion of number-shaped text.
	`SELECT * WHERE { ?x <pa> ?a . FILTER (?a >= 18 && ?a < 65) }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <pa> ?a . } FILTER (!bound(?a) || ?a > 20) }`,
	`SELECT * WHERE { ?x <pn> ?n . FILTER (regex(?n, "^a.*w$", "i")) }`,
	`SELECT * WHERE { ?x <pa> ?a . FILTER (?a + 5 < 2 * ?a) }`,
	`SELECT * WHERE { ?x <p0> ?y . FILTER (?y < <e5>) }`,
	`SELECT * WHERE { ?x <pn> ?n . FILTER (?n) }`,
	`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <pa> ?a . FILTER (?a != 7) } }`,
	`SELECT * WHERE { ?x <pn> ?n . ?x <pa> ?a . FILTER (regex(?n, "0") || ?a = 0) }`,
	`SELECT * WHERE { ?x <p0> ?y . FILTER (?nowhere > 3) }`,
	`SELECT * WHERE { ?x <pa> ?a . FILTER (?a = "20") }`,
	// Witnessless union alternatives (PR 10): alternatives under an
	// OPTIONAL whose variables all occur in the master. These shapes were
	// skipped until the synthetic-witness fix; they are now asserted like
	// any other query (with matching seed files checked into testdata).
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?x <p1> ?z } UNION { ?m <p2> ?x } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p2> ?x } UNION { ?x <p3> ?m } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p1> ?x } UNION { ?m <p2> ?x } UNION { ?x <p3> ?w } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?x <p1> ?m } UNION { ?m <p2> ?x . OPTIONAL { ?x <p3> ?n } } } }`,
}

// FuzzQueryDifferential fuzzes SPARQL query text against the reference
// evaluator: every mutated input that parses, stays well-designed, and is
// within the engine's documented coverage must produce the same result
// multiset at Workers 1, 2, and 8 — with the sequential and parallel runs
// additionally byte-identical in row order, and the streaming entry point
// delivering each worker count's rows in the same order. Run a short smoke with
//
//	go test ./internal/engine -run='^$' -fuzz=FuzzQueryDifferential -fuzztime=10s
//
// (wired into CI as make fuzz-smoke).
func FuzzQueryDifferential(f *testing.F) {
	for _, src := range fuzzSeedQueries {
		f.Add(src, int64(42))
		f.Add(src, int64(7))
	}
	f.Fuzz(func(t *testing.T, src string, graphSeed int64) {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Skip()
		}
		// The oracle implements no solution modifiers beyond DISTINCT and
		// projection; ORDER BY is harmless (comparison is sorted) but
		// LIMIT/OFFSET would change the multiset.
		if q.Limit >= 0 || q.Offset >= 0 {
			t.Skip()
		}
		tree, err := algebra.FromQuery(q)
		if err != nil {
			t.Skip()
		}
		branches, err := algebra.NormalizeUNF(tree)
		if err != nil || len(branches) > 12 {
			t.Skip()
		}
		for _, b := range branches {
			if len(algebra.TreePatterns(b.Tree)) > 7 {
				t.Skip() // keep the naive oracle's cost bounded
			}
			gosn, err := algebra.BuildGoSN(b.Tree)
			if err != nil {
				t.Skip()
			}
			if len(algebra.CheckWellDesigned(b.Tree, gosn)) > 0 {
				// Non-well-designed queries follow the paper's Appendix-B
				// null-intolerant semantics, which diverge from the W3C
				// algebra the oracle implements — by design, not by bug.
				t.Skip()
			}
		}
		g := fuzzGraph(graphSeed)
		maps, vars, err := ref.New(g).WithBudget(50000).Execute(q)
		if err != nil {
			t.Skip() // budget blow-up on a pathological mutation
		}
		want := difftest.RefKeys(maps, vars)
		idx := indexOf(t, g)
		var seq []string
		for _, w := range []int{1, 2, 8} {
			e := New(idx, Options{Workers: w})
			if q.Ask {
				got, err := e.AskContext(context.Background(), e.Prepare(q), nil)
				if err != nil {
					if Unsupported(err) {
						t.Skip()
					}
					t.Fatalf("ask workers=%d on %q: %v", w, src, err)
				}
				if got != (len(maps) > 0) {
					t.Fatalf("ask workers=%d on %q: engine=%v ref=%v", w, src, got, len(maps) > 0)
				}
				continue
			}
			label := fmt.Sprintf("workers=%d on %q", w, src)
			res, err := e.Execute(context.Background(), e.Prepare(q), nil)
			if err != nil {
				if Unsupported(err) {
					t.Skip()
				}
				t.Fatalf("%s: %v", label, err)
			}
			if v := difftest.Verdict(difftest.Keys(res.Vars, res.Terms(), vars), want); v != "" {
				t.Fatalf("%s: engine vs reference: %s", label, v)
			}
			exact := difftest.Exact(res.Terms())
			checkStreamed(t, e, q, exact, label)
			if seq == nil {
				seq = exact
			} else if v := difftest.Verdict(exact, seq); v != "" {
				t.Fatalf("%s: row order diverges from sequential: %s", label, v)
			}
		}
		if q.Ask || seq == nil {
			return
		}
		// Cross-query cache differential: execute the query twice through
		// one engine holding a store-level MatCache view, so the second
		// run loads every pattern from the cache (clone + mask-unfold).
		// Both the cold and the warm pass must stay byte-identical to the
		// uncached sequential rows.
		mc := NewMatCache(1 << 22)
		ce := NewWithCache(idx, Options{Workers: 2}, mc.Advance(1))
		for pass := 0; pass < 2; pass++ {
			res, err := ce.Execute(context.Background(), ce.Prepare(q), nil)
			if err != nil {
				// The uncached runs above already proved the query is
				// supported, so any error here is a cache bug — never skip.
				t.Fatalf("cached pass %d on %q: %v", pass, src, err)
			}
			if v := difftest.Verdict(difftest.Exact(res.Terms()), seq); v != "" {
				t.Fatalf("cached pass %d diverges from uncached run on %s: %s", pass, src, v)
			}
		}

		// Update interleaving: apply k seed-derived mutations and require
		// the delta-overlay view of the mutated graph to agree (as a
		// sorted multiset) with both a cold rebuild and the reference
		// evaluator. Inserts draw from a wider entity universe than the
		// base graph so some of them pair a subject-only base term with an
		// appended object — the extended-dictionary path.
		mrng := rand.New(rand.NewSource(graphSeed ^ 0x5eed))
		gm := g.Clone()
		preds := []string{"p0", "p1", "p2", "p3"}
		for i, k := 0, 2+mrng.Intn(5); i < k; i++ {
			if mrng.Intn(2) == 0 && gm.Len() > 0 {
				ts := gm.Triples()
				gm.Remove(ts[mrng.Intn(len(ts))])
			} else {
				gm.Add(rdf.T(fmt.Sprintf("e%d", mrng.Intn(16)),
					preds[mrng.Intn(len(preds))], fmt.Sprintf("e%d", mrng.Intn(16))))
			}
		}
		var insT, delT []rdf.Triple
		for _, tr := range gm.Triples() {
			if !g.Contains(tr) {
				insT = append(insT, tr)
			}
		}
		for _, tr := range g.Triples() {
			if !gm.Contains(tr) {
				delT = append(delT, tr)
			}
		}
		ov, err := bitmat.NewOverlay(idx, insT, delT)
		if err != nil {
			t.Fatalf("overlay over %d ins / %d del: %v", len(insT), len(delT), err)
		}
		mapsM, varsM, err := ref.New(gm).WithBudget(50000).Execute(q)
		if err != nil {
			t.Skip()
		}
		idxM := indexOf(t, gm)
		for _, view := range []struct {
			name string
			src  bitmat.Source
		}{{"overlay", ov}, {"rebuilt", idxM}} {
			e := New(view.src, Options{Workers: 2})
			if q.Ask {
				got, err := e.AskContext(context.Background(), e.Prepare(q), nil)
				if err != nil {
					if Unsupported(err) {
						t.Skip()
					}
					t.Fatalf("post-update ask on %s: %v", view.name, err)
				}
				if got != (len(mapsM) > 0) {
					t.Fatalf("post-update ask on %s: engine=%v ref=%v\nquery: %s", view.name, got, len(mapsM) > 0, src)
				}
				continue
			}
			resM, err := e.Execute(context.Background(), e.Prepare(q), nil)
			if err != nil {
				if Unsupported(err) {
					t.Skip()
				}
				t.Fatalf("post-update query on %s: %v", view.name, err)
			}
			if v := difftest.Verdict(difftest.Keys(resM.Vars, resM.Terms(), varsM), difftest.RefKeys(mapsM, varsM)); v != "" {
				t.Fatalf("post-update %s diverges from reference on %s: %s", view.name, src, v)
			}
		}
	})
}
