package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// randGraph builds a random graph over a small universe so joins and
// optionals hit both matching and missing cases. Beyond the IRI-only
// predicates p0..p3 it adds two literal-valued ones for the filter
// surface: <pa> binds typed xsd:integer objects, <pn> plain strings
// including the EBV corners "" and "0" and number-shaped text.
func randGraph(rng *rand.Rand, nTriples int) *rdf.Graph {
	g := rdf.NewGraph()
	ent := func(i int) string { return fmt.Sprintf("e%d", i) }
	preds := []string{"p0", "p1", "p2", "p3"}
	for i := 0; i < nTriples; i++ {
		g.Add(rdf.T(ent(rng.Intn(12)), preds[rng.Intn(len(preds))], ent(rng.Intn(12))))
	}
	litStrings := []string{"", "0", "alpha", "beta", "a show", "10", "Gamma"}
	for i := 0; i < nTriples/4+2; i++ {
		s := rdf.NewIRI(ent(rng.Intn(12)))
		if rng.Intn(2) == 0 {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI("pa"),
				O: rdf.NewTypedLiteral(strconv.Itoa(rng.Intn(40)-5),
					"http://www.w3.org/2001/XMLSchema#integer")})
		} else {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI("pn"),
				O: rdf.NewLiteral(litStrings[rng.Intn(len(litStrings))])})
		}
	}
	return g
}

// randWellDesignedQuery generates a well-designed nested BGP-OPT query by
// construction: every OPTIONAL right side reuses exactly one variable from
// the pattern built so far and introduces fresh ones, so no variable of a
// slave leaks outside without appearing in its master.
func randWellDesignedQuery(rng *rand.Rand) string {
	preds := []string{"p0", "p1", "p2", "p3"}
	varCount := 0
	newVar := func() string {
		varCount++
		return fmt.Sprintf("?v%d", varCount-1)
	}
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }
	pat := func(s, o string) string {
		return fmt.Sprintf("%s <%s> %s .", s, pick(preds), o)
	}

	// Master BGP: a connected chain of 1-3 patterns.
	var sb []byte
	var vars []string
	v0 := newVar()
	vars = append(vars, v0)
	prev := v0
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		var next string
		if rng.Intn(3) == 0 {
			next = fmt.Sprintf("<e%d>", rng.Intn(12)) // constant endpoint
		} else {
			next = newVar()
			vars = append(vars, next)
		}
		sb = append(sb, pat(prev, next)...)
		sb = append(sb, ' ')
		if next[0] == '?' {
			prev = next
		}
	}
	// 1-2 optionals, possibly nested one level.
	for k := 0; k < 1+rng.Intn(2); k++ {
		link := pick(vars)
		inner := ""
		ov := newVar()
		inner += pat(link, ov) + " "
		if rng.Intn(2) == 0 {
			ov2 := newVar()
			inner += pat(ov, ov2) + " "
		}
		if rng.Intn(3) == 0 {
			// Nested optional reusing the inner variable only.
			ov3 := newVar()
			inner += fmt.Sprintf("OPTIONAL { %s } ", pat(ov, ov3))
		}
		sb = append(sb, fmt.Sprintf("OPTIONAL { %s} ", inner)...)
	}
	return "SELECT * WHERE { " + string(sb) + "}"
}

// qgen generates random well-designed queries with UNION, sharing one
// variable/predicate-variable counter across all union alternatives so
// fresh names never collide (a reused predicate variable would be a
// predicate join, which the engine rejects by design).
type qgen struct {
	rng       *rand.Rand
	varCount  int
	pvarCount int
	// pool holds variables usable for cross-alternative sharing: union
	// alternatives that reuse a name exercise the column alignment and
	// NULL filling of the cross-branch merge.
	pool []string
}

func (g *qgen) newVar() string {
	g.varCount++
	v := fmt.Sprintf("?v%d", g.varCount-1)
	g.pool = append(g.pool, v)
	return v
}

func (g *qgen) newPredVar() string {
	g.pvarCount++
	return fmt.Sprintf("?pv%d", g.pvarCount-1)
}

func (g *qgen) pick(vs []string) string { return vs[g.rng.Intn(len(vs))] }

func (g *qgen) pat(s, o string) string {
	preds := []string{"p0", "p1", "p2", "p3"}
	return fmt.Sprintf("%s <%s> %s .", s, g.pick(preds), o)
}

// filterExpr builds a random FILTER body over the variable classes the
// surrounding block bound: num (typed-integer objects via <pa>), str
// (plain-string objects via <pn>), iri (chain endpoints). Shapes cover
// the supported core — comparisons, arithmetic, regex, bound(), bare-EBV
// atoms, nowhere-vars (unbound everywhere: always an error or false) and
// nested &&/||/! — including deliberately ill-typed mixes so the
// type-error drop rows get differential coverage.
func (g *qgen) filterExpr(num, str, iri []string, depth int) string {
	rng := g.rng
	if depth > 0 && rng.Intn(3) == 0 {
		op := "&&"
		if rng.Intn(2) == 0 {
			op = "||"
		}
		return fmt.Sprintf("(%s %s %s)",
			g.filterExpr(num, str, iri, depth-1), op,
			g.filterExpr(num, str, iri, depth-1))
	}
	if depth > 0 && rng.Intn(8) == 0 {
		return fmt.Sprintf("!(%s)", g.filterExpr(num, str, iri, depth-1))
	}
	cmp := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	var choices []func() string
	if len(num) > 0 {
		choices = append(choices,
			func() string { return fmt.Sprintf("%s %s %d", g.pick(num), cmp, rng.Intn(40)-5) },
			func() string { return fmt.Sprintf("%s + %d %s %d", g.pick(num), rng.Intn(5), cmp, rng.Intn(40)) },
			func() string { return fmt.Sprintf("2 * %s %s %s", g.pick(num), cmp, g.pick(num)) },
			func() string { return g.pick(num) }, // bare EBV: 0 is false
		)
		if len(str) > 0 {
			// Ill-typed on purpose: number vs string errors unless both
			// happen to be number-shaped text.
			choices = append(choices, func() string {
				return fmt.Sprintf("%s %s %s", g.pick(num), cmp, g.pick(str))
			})
		}
	}
	if len(str) > 0 {
		pats := []string{"^a", "0", "a.*a", "^$", "SHOW"}
		choices = append(choices,
			func() string {
				p := pats[rng.Intn(len(pats))]
				if rng.Intn(2) == 0 {
					return fmt.Sprintf("regex(%s, %q, \"i\")", g.pick(str), p)
				}
				return fmt.Sprintf("regex(%s, %q)", g.pick(str), p)
			},
			func() string { return fmt.Sprintf("%s %s \"beta\"", g.pick(str), cmp) },
			func() string { return g.pick(str) }, // bare EBV: "" is false
		)
	}
	if len(iri) > 0 {
		choices = append(choices,
			func() string { return fmt.Sprintf("%s %s <e%d>", g.pick(iri), cmp, rng.Intn(12)) },
			func() string { return fmt.Sprintf("bound(%s)", g.pick(iri)) },
		)
	}
	choices = append(choices,
		func() string { return "bound(?nowhere)" },
		func() string { return "!bound(?nowhere)" },
	)
	return choices[rng.Intn(len(choices))]()
}

// litPat emits a literal-valued pattern off subject s and returns the
// fresh object variable: numeric (typed integers via <pa>) or string
// (plain literals via <pn>).
func (g *qgen) litPat(s string, numeric bool) (string, string) {
	v := g.newVar()
	p := "pn"
	if numeric {
		p = "pa"
	}
	return fmt.Sprintf("%s <%s> %s .", s, p, v), v
}

// block emits one well-designed BGP-OPT block: a connected master chain,
// optionally a ?s ?p ?o full scan, then OPTIONALs whose right sides link
// through exactly one master variable — occasionally a nested
// UNION-under-OPTIONAL (rewrite rule 3) or an OPTIONAL full scan (the
// rule-3-like expansion path).
func (g *qgen) block() string {
	rng := g.rng
	var sb []byte
	var vars []string
	v0 := g.newVar()
	vars = append(vars, v0)
	prev := v0
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		var next string
		if rng.Intn(3) == 0 {
			next = fmt.Sprintf("<e%d>", rng.Intn(12)) // constant endpoint
		} else {
			next = g.newVar()
			vars = append(vars, next)
		}
		sb = append(sb, g.pat(prev, next)...)
		sb = append(sb, ' ')
		if next[0] == '?' {
			prev = next
		}
	}
	if rng.Intn(4) == 0 {
		// Master full scan: joins the chain on the subject; the predicate
		// variable occurs exactly once in the whole query.
		ov := g.newVar()
		sb = append(sb, fmt.Sprintf("%s %s %s . ", g.pick(vars), g.newPredVar(), ov)...)
		vars = append(vars, ov)
	}
	// Literal-valued patterns feed the filter generator: numVars bind
	// typed integers, strVars plain strings.
	var numVars, strVars []string
	for rng.Intn(2) == 0 && len(numVars)+len(strVars) < 2 {
		numeric := rng.Intn(2) == 0
		p, v := g.litPat(g.pick(vars), numeric)
		sb = append(sb, p...)
		sb = append(sb, ' ')
		if numeric {
			numVars = append(numVars, v)
		} else {
			strVars = append(strVars, v)
		}
	}
	for k := 0; k < 1+rng.Intn(2); k++ {
		link := g.pick(vars)
		switch rng.Intn(5) {
		case 0:
			// Nested UNION under OPTIONAL: rule 3, cross-branch best-match.
			switch rng.Intn(4) {
			case 0:
				a, b := g.newVar(), g.newVar()
				sb = append(sb, fmt.Sprintf("OPTIONAL { { %s } UNION { %s } } ",
					g.pat(link, a), g.pat(link, b))...)
			case 1:
				// Alternatives of unequal richness sharing the object
				// variable: one binds a fresh subject, the other reuses a
				// master variable, so a match of the poorer alternative is
				// content-subsumed by the richer one — the minimum union
				// must still keep it (genuine solution, not an artifact).
				x, z := g.newVar(), g.newVar()
				sb = append(sb, fmt.Sprintf("OPTIONAL { { %s } UNION { %s } } ",
					g.pat(x, z), g.pat(link, z))...)
			case 2:
				// Witnessless alternative: one arm reuses only master
				// variables, so its rule-3 split relies on the synthetic
				// witness column to mark matched rows (previously the
				// skipped deviation; now asserted).
				a := g.newVar()
				sb = append(sb, fmt.Sprintf("OPTIONAL { { %s } UNION { %s } } ",
					g.pat(link, a), g.pat(g.pick(vars), link))...)
			default:
				// Every alternative witnessless: all arms over master
				// variables only, so the whole union's minimum collapse is
				// carried by synthetic witnesses.
				sb = append(sb, fmt.Sprintf("OPTIONAL { { %s } UNION { %s } } ",
					g.pat(link, g.pick(vars)), g.pat(g.pick(vars), link))...)
			}
		case 1:
			// OPTIONAL full scan: expands per predicate under rule 3.
			ov := g.newVar()
			sb = append(sb, fmt.Sprintf("OPTIONAL { %s %s %s . } ",
				link, g.newPredVar(), ov)...)
		default:
			inner := ""
			ov := g.newVar()
			inner += g.pat(link, ov) + " "
			if rng.Intn(2) == 0 {
				inner += g.pat(ov, g.newVar()) + " "
			}
			if rng.Intn(3) == 0 {
				// OPTIONAL-local filter over a variable the optional itself
				// binds (FaN: filter-as-nullification turns a failing filter
				// into a NULL row, not a dropped one). Filters over master
				// variables would be unsafe here by scoping.
				numeric := rng.Intn(2) == 0
				p, lv := g.litPat(ov, numeric)
				inner += p + " "
				if numeric {
					inner += fmt.Sprintf("FILTER (%s > %d) ", lv, rng.Intn(30))
				} else {
					inner += fmt.Sprintf("FILTER (regex(%s, \"a\")) ", lv)
				}
			}
			if rng.Intn(3) == 0 {
				// Nested optional reusing the inner variable only.
				inner += fmt.Sprintf("OPTIONAL { %s } ", g.pat(ov, g.newVar()))
			}
			sb = append(sb, fmt.Sprintf("OPTIONAL { %s} ", inner)...)
		}
	}
	// Block-level filter: sees every variable of the block (OPTIONAL
	// objects included — top-level filter scope covers the whole group),
	// so unbound optional cells hit the error path per row.
	if rng.Intn(2) == 0 {
		sb = append(sb, fmt.Sprintf("FILTER (%s) ",
			g.filterExpr(numVars, strVars, vars, 1+rng.Intn(2)))...)
	}
	return string(sb)
}

// randUnionQuery generates a UNION of 1-3 well-designed blocks. With some
// probability a later alternative rebinds a variable of an earlier one
// (sharing the name, not the patterns), so result columns overlap across
// branches.
func randUnionQuery(rng *rand.Rand) string {
	g := &qgen{rng: rng}
	nAlts := 1 + rng.Intn(3)
	alts := make([]string, nAlts)
	for i := range alts {
		if i > 0 && len(g.pool) > 0 && rng.Intn(2) == 0 {
			// Seed the alternative's chain with a shared variable name.
			shared := g.pick(g.pool)
			alts[i] = fmt.Sprintf("%s ", g.pat(shared, g.newVar())) + g.block()
		} else {
			alts[i] = g.block()
		}
	}
	if nAlts == 1 {
		return "SELECT * WHERE { " + alts[0] + "}"
	}
	body := ""
	for i, a := range alts {
		if i > 0 {
			body += "UNION "
		}
		body += "{ " + a + "} "
	}
	return "SELECT * WHERE { " + body + "}"
}

// TestDifferentialUnionWorkerSweep is the PR's main harness: ≥500 random
// UNION/OPTIONAL queries (nested UNION-under-OPTIONAL and ?s ?p ?o
// expansion branches included), each executed at Workers ∈ {1, 2, 8} with
// the parallel thresholds forced down so branch scheduling and adaptive
// partitioning really engage. Every execution must agree with the
// reference evaluator as a sorted multiset, and the parallel runs must be
// byte-identical — order and NULL cells included — to the sequential run.
func TestDifferentialUnionWorkerSweep(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(2026))
	workerCounts := []int{1, 2, 8}
	trials := 500
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		g := randGraph(rng, 24+rng.Intn(40))
		src := randUnionQuery(rng)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		idx, err := bitmat.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		maps, vars, err := ref.New(g).Execute(q)
		if err != nil {
			t.Fatalf("ref on %q: %v", src, err)
		}
		var seq []string
		for _, w := range workerCounts {
			e := New(idx, Options{Workers: w})
			res, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatalf("trial %d workers=%d on %q: %v", trial, w, src, err)
			}
			if !sameRows(res, maps, vars) {
				t.Fatalf("trial %d workers=%d mismatch\nquery: %s\nengine: %v\nref:    %v",
					trial, w, src, renderRows(res, vars), ref.SortedKeys(maps, vars))
			}
			exact := exactRows(res)
			checkStreamed(t, e, q, exact, fmt.Sprintf("trial %d workers=%d on %q", trial, w, src))
			if seq == nil {
				seq = exact
				continue
			}
			if len(exact) != len(seq) {
				t.Fatalf("trial %d workers=%d: %d rows, sequential had %d\nquery: %s",
					trial, w, len(exact), len(seq), src)
			}
			for i := range seq {
				if exact[i] != seq[i] {
					t.Fatalf("trial %d workers=%d row %d: %q != sequential %q\nquery: %s",
						trial, w, i, exact[i], seq[i], src)
				}
			}
		}
	}
}

// TestDifferentialFuzzRegressions pins, deterministically and across many
// random graphs, the bug classes FuzzQueryDifferential surfaced while this
// harness was built:
//
//  1. A union alternative under OPTIONAL that binds fewer variables than
//     its sibling is still a genuine solution when it matches — the
//     cross-branch minimum union may only remove rows whose own split
//     failed, and only on the evidence of a subsumer binding one of that
//     split's witness columns.
//  2. A split whose every alternative failed produced a genuine NULL row;
//     a subsumer extending a *different* (matched) split must not kill it.
//  3. A slave supernode whose patterns are not variable-connected can
//     match partially; the planner now forces nullification for it.
//  4. A nested OPTIONAL sharing no variable with its failed master level
//     must fail with it instead of enumerating freely.
func TestDifferentialFuzzRegressions(t *testing.T) {
	queries := []string{
		// (1) poorer alternative shares the object var with the richer one.
		`SELECT * WHERE { ?v1 <p1> ?v2 .
			OPTIONAL { { ?v5 <p3> ?v6 . } UNION { ?v2 <p3> ?v6 . } } }`,
		// (2) a failed first split composed with a two-alternative second.
		`SELECT * WHERE { ?v1 <p1> ?v2 .
			OPTIONAL { { ?v2 <p1> ?v3 . } UNION { ?v2 <p1> ?v4 . } }
			OPTIONAL { { ?v5 <p3> ?v6 . } UNION { ?v2 <p3> ?v6 . } } }`,
		// (3) disconnected patterns inside one OPTIONAL: the self-join probe
		// can fail while the free scan matches.
		`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?a <p1> ?b . ?x <p2> ?x . } }`,
		// (4) nested OPTIONAL disconnected from its failing middle level.
		`SELECT * WHERE { ?x <p0> ?y .
			OPTIONAL { ?x <p1> ?z . OPTIONAL { ?a <p0> ?b . } } }`,
	}
	rng := rand.New(rand.NewSource(7042))
	for trial := 0; trial < 60; trial++ {
		g := randGraph(rng, 16+rng.Intn(24))
		idx, err := bitmat.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for qi, src := range queries {
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			maps, vars, err := ref.New(g).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4} {
				e := New(idx, Options{Workers: w})
				res, err := e.Execute(q)
				if err != nil {
					t.Fatalf("q%d trial %d workers=%d: %v", qi, trial, w, err)
				}
				if !sameRows(res, maps, vars) {
					t.Fatalf("q%d trial %d workers=%d mismatch\nquery: %s\nengine: %v\nref:    %v",
						qi, trial, w, src, renderRows(res, vars), ref.SortedKeys(maps, vars))
				}
				checkStreamed(t, e, q, exactRows(res), fmt.Sprintf("q%d trial %d workers=%d", qi, trial, w))
			}
		}
	}
}

// TestDifferentialCacheRegressions pins, deterministically and across
// many random graphs, the cache-stressing shapes grown into the fuzz seed
// corpus for PR 5's cross-query materialization cache: identical
// subpatterns across UNION branches (served through the per-query tier
// over the store tier), the same predicate in both orientations (distinct
// cache keys per orientation), full scans whose per-predicate expansion
// floods the cache, and repeated masked loads that must clone-then-unfold
// bit-identically to a direct filtered build. Each query runs cold and
// warm over one shared MatCache at Workers 1 and 4, and additionally
// through a retired view (post-Advance) that must bypass the cache
// without losing correctness; every run must agree with the reference
// evaluator and be byte-identical across passes.
func TestDifferentialCacheRegressions(t *testing.T) {
	queries := []string{
		// Shared subpattern across three branches + cross-query reuse.
		`SELECT * WHERE { { ?x <p0> ?y . ?y <p1> ?z . } UNION { ?x <p0> ?y . ?y <p2> ?z . } UNION { ?x <p0> ?y . } }`,
		// Same predicate, both orientations, in one query.
		`SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?x . OPTIONAL { ?x <p1> ?m . } }`,
		// Self-join diagonal next to the plain matrix of one predicate.
		`SELECT * WHERE { ?x <p0> ?x . OPTIONAL { ?x <p0> ?y . } }`,
		// Full-scan expansion: every per-predicate branch fills the cache.
		`SELECT * WHERE { ?s ?p ?o . ?s <p0> ?x . }`,
		// Nested OPTIONAL chain reusing one predicate at every level: the
		// masked loads hit the cached pristine matrix with different masks.
		// (Nested, not sequential: the sequential form is non-well-designed
		// and follows Appendix-B semantics the reference does not share.)
		`SELECT * WHERE { ?x <p0> ?y . OPTIONAL { ?y <p0> ?z . OPTIONAL { ?z <p0> ?w . } } }`,
		// Constant-bound rows (RowPS/RowPO paths) recurring across branches.
		`SELECT * WHERE { { ?x <p0> <e3> . ?x <p1> ?y . } UNION { ?x <p0> <e3> . ?x <p2> ?y . } }`,
	}
	rng := rand.New(rand.NewSource(5042))
	for trial := 0; trial < 40; trial++ {
		g := randGraph(rng, 20+rng.Intn(40))
		idx, err := bitmat.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for qi, src := range queries {
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			maps, vars, err := ref.New(g).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			mc := NewMatCache(1 << 22)
			view := mc.Advance(1)
			var first []string
			check := func(e *Engine, label string) {
				res, err := e.Execute(q)
				if err != nil {
					t.Fatalf("q%d trial %d %s: %v", qi, trial, label, err)
				}
				if !sameRows(res, maps, vars) {
					t.Fatalf("q%d trial %d %s mismatch\nquery: %s\nengine: %v\nref:    %v",
						qi, trial, label, src, renderRows(res, vars), ref.SortedKeys(maps, vars))
				}
				exact := exactRows(res)
				checkStreamed(t, e, q, exact, fmt.Sprintf("q%d trial %d %s", qi, trial, label))
				if first == nil {
					first = exact
					return
				}
				if fmt.Sprint(exact) != fmt.Sprint(first) {
					t.Fatalf("q%d trial %d %s: rows diverge from first run\nquery: %s", qi, trial, label, src)
				}
			}
			for _, w := range []int{1, 4} {
				e := NewWithCache(idx, Options{Workers: w}, view)
				check(e, fmt.Sprintf("cold workers=%d", w))
				check(e, fmt.Sprintf("warm workers=%d", w))
			}
			// Retire the generation: the old view must bypass, not break.
			mc.Advance(2)
			check(NewWithCache(idx, Options{Workers: 2}, view), "retired view")
			if st := mc.Stats(); st.Hits == 0 && st.Misses > 0 {
				t.Fatalf("q%d trial %d: warm passes never hit the cache: %+v", qi, trial, st)
			}
		}
	}
}

func TestDifferentialRandomWellDesigned(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		g := randGraph(rng, 20+rng.Intn(60))
		src := randWellDesignedQuery(rng)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		e := engineOver(t, g, Options{})
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("engine on %q: %v", src, err)
		}
		maps, vars, err := ref.New(g).Execute(q)
		if err != nil {
			t.Fatalf("ref on %q: %v", src, err)
		}
		if !sameRows(res, maps, vars) {
			t.Fatalf("trial %d mismatch\nquery: %s\nengine: %v\nref:    %v",
				trial, src, renderRows(res, vars), ref.SortedKeys(maps, vars))
		}
		checkStreamed(t, e, q, exactRows(res), fmt.Sprintf("trial %d on %q", trial, src))
	}
}

func TestDifferentialRandomWithAblations(t *testing.T) {
	// The ablation modes must stay correct (they add nullification).
	for _, opts := range []Options{
		{DisablePruning: true},
		{DisableActivePruning: true},
		{NaiveJvarOrder: true},
		{DisablePruning: true, DisableActivePruning: true},
	} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			g := randGraph(rng, 20+rng.Intn(40))
			src := randWellDesignedQuery(rng)
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			e := engineOver(t, g, opts)
			res, err := e.Execute(q)
			if err != nil {
				t.Fatalf("engine(%+v) on %q: %v", opts, src, err)
			}
			maps, vars, err := ref.New(g).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res, maps, vars) {
				t.Fatalf("opts %+v trial %d mismatch\nquery: %s\nengine: %v\nref:    %v",
					opts, trial, src, renderRows(res, vars), ref.SortedKeys(maps, vars))
			}
			checkStreamed(t, e, q, exactRows(res), fmt.Sprintf("opts %+v trial %d on %q", opts, trial, src))
		}
	}
}

// sameRows compares the engine result with reference mappings as sorted
// multisets over the reference variable order.
func sameRows(res *Result, maps []ref.Mapping, vars []sparql.Var) bool {
	want := ref.SortedKeys(maps, vars)
	got := renderRows(res, vars)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkStreamed requires the streaming entry point to deliver want — the
// exactRows of Execute on the same engine — row for row, in the same
// order. Every differential harness runs it, so the streamed and the
// collected routes are compared wherever the reference judges the engine.
func checkStreamed(t *testing.T, e *Engine, q *sparql.Query, want []string, label string) {
	t.Helper()
	var got []string
	err := e.ExecuteStream(context.Background(), q, nil, func(_ []sparql.Var, row Row) bool {
		got = append(got, exactRow(row))
		return true
	}, nil, nil)
	if err != nil {
		t.Fatalf("%s: streamed: %v", label, err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: streamed rows differ from Execute\nstreamed: %v\nexecute:  %v", label, got, want)
	}
}

func renderRows(res *Result, vars []sparql.Var) []string {
	pos := map[sparql.Var]int{}
	for i, v := range res.Vars {
		pos[v] = i
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := ""
		for k, v := range vars {
			if k > 0 {
				s += "|"
			}
			if p, ok := pos[v]; ok && !r[p].IsZero() {
				s += r[p].String()
			} else {
				s += "NULL"
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestDifferentialCyclicQueries(t *testing.T) {
	// Cyclic queries exercise the greedy order + nullification/best-match
	// paths. Compare as sets (nullification-induced duplicate collapse is
	// keyed on full rows; see bestmatch.go).
	rng := rand.New(rand.NewSource(99))
	queries := []string{
		// Triangle with a 1-jvar slave (Lemma 3.4 class).
		`SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?a .
			OPTIONAL { ?a <p3> ?x . } }`,
		// Triangle with a 2-jvar slave (full nullification/best-match).
		`SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?a .
			OPTIONAL { ?a <p3> ?b . } }`,
		// Square cycle.
		`SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d . ?d <p3> ?a .
			OPTIONAL { ?b <p3> ?y . } }`,
	}
	for trial := 0; trial < 25; trial++ {
		g := randGraph(rng, 30+rng.Intn(60))
		for _, src := range queries {
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			e := engineOver(t, g, Options{})
			res, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			maps, vars, err := ref.New(g).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			got := dedupStrings(renderRows(res, vars))
			want := dedupStrings(ref.SortedKeys(maps, vars))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d cyclic mismatch\nquery: %s\nengine: %v\nref:    %v",
					trial, src, got, want)
			}
			checkStreamed(t, e, q, exactRows(res), fmt.Sprintf("trial %d on %q", trial, src))
		}
	}
}

func dedupStrings(xs []string) []string {
	var out []string
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}
