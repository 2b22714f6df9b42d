package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// diffRun executes q on e and requires its rows to equal the reference
// keys want (over vars) as a multiset, and the streaming entry point to
// replay them row for row. It returns the result and its exact in-order
// rows, for the caller's byte-identity checks.
func diffRun(t *testing.T, e *Engine, q *sparql.Query, want []string, vars []sparql.Var, label string) (*Result, []string) {
	t.Helper()
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows, vars), want); v != "" {
		t.Fatalf("%s: engine vs reference: %s", label, v)
	}
	exact := difftest.Exact(res.Rows)
	checkStreamed(t, e, q, exact, label)
	return res, exact
}

// checkStreamed requires the streaming entry point to deliver want — the
// exact rows of Execute on the same engine — row for row, in the same
// order. Every differential harness runs it, so the streamed and the
// collected routes are compared wherever the reference judges the engine.
func checkStreamed(t *testing.T, e *Engine, q *sparql.Query, want []string, label string) {
	t.Helper()
	var rows []Row
	err := e.ExecuteStream(context.Background(), q, nil, func(_ []sparql.Var, row Row) bool {
		rows = append(rows, row)
		return true
	}, nil, nil)
	if err != nil {
		t.Fatalf("%s: streamed: %v", label, err)
	}
	if v := difftest.Verdict(difftest.Exact(rows), want); v != "" {
		t.Fatalf("%s: streamed rows differ from Execute: %s", label, v)
	}
}

func indexOf(t testing.TB, g *rdf.Graph) *bitmat.Index {
	t.Helper()
	idx, err := bitmat.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// randGraphs draws n graphs of base+[0, spread) IRI triples from seed.
func randGraphs(seed int64, n, base, spread int) []*rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	gs := make([]*rdf.Graph, n)
	for i := range gs {
		gs[i] = difftest.Graph(rng, base+rng.Intn(spread))
	}
	return gs
}

// fuzzGraph is the graph FuzzQueryDifferential runs a graph seed on.
func fuzzGraph(seed int64) *rdf.Graph {
	return difftest.Graph(rand.New(rand.NewSource(seed)), 36)
}

// diffGraphs runs every query on every graph at each worker count: each
// run must agree with the reference and replay through the streaming
// route, and render byte-identically to the first worker count. check,
// when non-nil, inspects every result; name prefixes failure messages.
func diffGraphs(t *testing.T, name string, queries []string, graphs []*rdf.Graph, workers []int, check func(*Result)) {
	t.Helper()
	for gi, g := range graphs {
		idx := indexOf(t, g)
		for qi, src := range queries {
			q, want, vars := difftest.RefSrc(t, g, src)
			var first []string
			for _, w := range workers {
				label := fmt.Sprintf("%s graph %d q%d workers=%d on %s", name, gi, qi, w, src)
				res, exact := diffRun(t, New(idx, Options{Workers: w}), q, want, vars, label)
				if check != nil {
					check(res)
				}
				if first == nil {
					first = exact
				} else if v := difftest.Verdict(exact, first); v != "" {
					t.Fatalf("%s: rows diverge from workers=%d: %s", label, workers[0], v)
				}
			}
		}
	}
}

// BaselineOpinion runs the relational baseline, under both of its
// policies, on q over idx and describes its first disagreement with the
// reference keys want (over vars); "" means it agrees. The baseline
// imports this package, so the external test package installs it
// (baseline_opinion_test.go).
var BaselineOpinion func(idx bitmat.Source, q *sparql.Query, want []string, vars []sparql.Var) string

// sweepWorkers runs trials grammar queries at weights w, each on a fresh
// random graph, at Workers ∈ {1, 2, 8} with the parallel thresholds
// forced down so branch scheduling and adaptive partitioning really
// engage. Every execution must agree with the reference evaluator as a
// sorted multiset, and the parallel runs must be byte-identical — order
// and NULL cells included — to the sequential run. The baseline is the
// third opinion on every query in its domain (difftest.BaselineDomain),
// and at least minDomain percent of the trials must be.
func sweepWorkers(t *testing.T, seed int64, trials int, w difftest.Weights, minDomain int) {
	t.Helper()
	forceParallel(t)
	rng := rand.New(rand.NewSource(seed))
	inDomain := 0
	for trial := 0; trial < trials; trial++ {
		g := difftest.Graph(rng, 24+rng.Intn(40))
		src, _ := difftest.Query(rng, w)
		label := fmt.Sprintf("trial %d", trial)
		diffGraphs(t, label, []string{src}, []*rdf.Graph{g}, []int{1, 2, 8}, nil)
		if q, err := sparql.Parse(src); BaselineOpinion == nil || err != nil || !difftest.BaselineDomain(q) {
			continue
		}
		inDomain++
		q, want, vars := difftest.RefSrc(t, g, src)
		if v := BaselineOpinion(indexOf(t, g), q, want, vars); v != "" {
			t.Fatalf("%s on %s: baseline vs reference: %s", label, src, v)
		}
	}
	if BaselineOpinion != nil && inDomain*100 < minDomain*trials {
		t.Fatalf("only %d of %d trials lie in the baseline's domain, want at least %d %%", inDomain, trials, minDomain)
	}
}

// TestDifferentialUnionWorkerSweep is the main union harness: ≥500
// queries of the Union mix (nested UNION-under-OPTIONAL and ?s ?p ?o
// expansion branches included) through sweepWorkers.
func TestDifferentialUnionWorkerSweep(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 60
	}
	sweepWorkers(t, 2026, trials, difftest.Union, 50)
}

// TestDifferentialProductionSweep runs the grammar's Default mix, which
// adds the productions the query fuzzer once reached only by luck —
// absent predicates, variable-free guards, rule-3 peers sharing only
// master variables, all-empty UNION arms, a group joined to a UNION under
// OPTIONAL — through sweepWorkers.
func TestDifferentialProductionSweep(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	sweepWorkers(t, 2027, trials, difftest.Default, 15)
}

// TestDifferentialFuzzRegressions pins, deterministically and across many
// random graphs, the bug classes FuzzQueryDifferential surfaced:
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
//  5. Rule 3 splits OPTIONAL { A . (B UNION C) } into peers A·B and A·C; a
//     peer fails with every peer of its split, even one it shares only
//     master variables with, and an arm with no match (an absent
//     predicate) is a boolean guard on its class. Class 5 runs on the
//     fuzzer's graph for every seed in [-50, 200).
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
	diffGraphs(t, "classes 1-4", queries, randGraphs(7042, 60, 16, 24), []int{1, 4}, nil)
	peerSplits := []string{
		`SELECT*WHERE{$m<p0>$x OPTIONAL{{$m<p1>$0}{$0<>$0}UNION{$x<00>$1}}}`,
		`SELECT*WHERE{$m<p0>$x OPTIONAL{{$m<p1>$0}{$0<>$0}UNION{$1<00>$1}}}`,
		`SELECT * WHERE { ?m <p0> ?x OPTIONAL { { ?m <p1> ?z } { ?z <p2> ?v } UNION { ?x <p3> ?w } } }`,
	}
	var fuzzGraphs []*rdf.Graph
	for seed := int64(-50); seed < 200; seed++ {
		fuzzGraphs = append(fuzzGraphs, fuzzGraph(seed))
	}
	diffGraphs(t, "class 5 (graph i is seed i-50)", peerSplits, fuzzGraphs, []int{1, 2, 8}, nil)
}

// TestDifferentialCacheRegressions pins, deterministically and across
// many random graphs, the cache-stressing shapes grown into the fuzz seed
// corpus for the cross-query materialization cache: identical
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
	for trial, g := range randGraphs(5042, 40, 20, 40) {
		idx := indexOf(t, g)
		for qi, src := range queries {
			q, want, vars := difftest.RefSrc(t, g, src)
			mc := NewMatCache(1 << 22)
			view := mc.Advance(1)
			var first []string
			check := func(e *Engine, label string) {
				label = fmt.Sprintf("q%d trial %d %s on %s", qi, trial, label, src)
				_, exact := diffRun(t, e, q, want, vars, label)
				if first == nil {
					first = exact
				} else if v := difftest.Verdict(exact, first); v != "" {
					t.Fatalf("%s: rows diverge from first run: %s", label, v)
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
		g := difftest.Graph(rng, 20+rng.Intn(60))
		src, _ := difftest.Query(rng, difftest.WellDesigned)
		q, want, vars := difftest.RefSrc(t, g, src)
		diffRun(t, engineOver(t, g, Options{}), q, want, vars, fmt.Sprintf("trial %d on %s", trial, src))
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
			g := difftest.Graph(rng, 20+rng.Intn(40))
			src, _ := difftest.Query(rng, difftest.WellDesigned)
			q, want, vars := difftest.RefSrc(t, g, src)
			diffRun(t, engineOver(t, g, opts), q, want, vars, fmt.Sprintf("opts %+v trial %d on %s", opts, trial, src))
		}
	}
}

func TestDifferentialCyclicQueries(t *testing.T) {
	// Cyclic queries exercise the greedy order + nullification/best-match
	// paths. Compare as sets (nullification-induced duplicate collapse is
	// keyed on full rows; see bestmatch.go).
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
	for trial, g := range randGraphs(99, 25, 30, 60) {
		for _, src := range queries {
			q, want, vars := difftest.RefSrc(t, g, src)
			e := engineOver(t, g, Options{})
			res, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Compact(difftest.Keys(res.Vars, res.Rows, vars))
			if v := difftest.Verdict(got, slices.Compact(want)); v != "" {
				t.Fatalf("trial %d cyclic mismatch on %s: %s", trial, src, v)
			}
			checkStreamed(t, e, q, difftest.Exact(res.Rows), fmt.Sprintf("trial %d on %q", trial, src))
		}
	}
}
