package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// figure32Graph is the sample data of Figure 3.2.
func figure32Graph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{
		rdf.T("Julia", "actedIn", "Seinfeld"),
		rdf.T("Julia", "actedIn", "Veep"),
		rdf.T("Julia", "actedIn", "NewAdvOldChristine"),
		rdf.T("Julia", "actedIn", "CurbYourEnthu"),
		rdf.T("Larry", "actedIn", "CurbYourEnthu"),
		rdf.T("Jerry", "hasFriend", "Julia"),
		rdf.T("Jerry", "hasFriend", "Larry"),
		rdf.T("Seinfeld", "location", "NewYorkCity"),
		rdf.T("Veep", "location", "D.C."),
		rdf.T("CurbYourEnthu", "location", "LosAngeles"),
		rdf.T("NewAdvOldChristine", "location", "Jersey"),
	} {
		g.Add(tr)
	}
	return g
}

func engineOver(t *testing.T, g *rdf.Graph, opts Options) *Engine {
	t.Helper()
	return New(indexOf(t, g), opts)
}

// execString parses src and executes it on the collect route.
func execString(e *Engine, src string) (*Result, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(context.Background(), e.Prepare(q), nil)
}

const q2 = `
	PREFIX : <>
	SELECT * WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . }}`

// rowsAsStrings is the sorted multiset key of res over its own columns.
func rowsAsStrings(res *Result) []string { return difftest.Keys(res.Vars, res.Terms(), res.Vars) }

func TestFigure32FinalResults(t *testing.T) {
	// The query of Figure 3.2 has exactly two results: (Julia, Seinfeld)
	// and (Larry, NULL).
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, q2)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<Julia>|<Seinfeld>", "<Larry>|NULL"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if res.Stats.BestMatch {
		t.Error("acyclic Q2 must not need best-match (Lemma 3.3)")
	}
	if res.Stats.NullResults != 1 {
		t.Errorf("NullResults = %d, want 1", res.Stats.NullResults)
	}
}

func TestExample1PruningToMinimal(t *testing.T) {
	// Example-1 of Section 3.1: after prune_triples, tp1 keeps 2 triples,
	// tp2 keeps only (Julia actedIn Seinfeld), tp3 keeps 1.
	// AfterPruning therefore sums to 2 + 1 + 1 = 4.
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, q2)
	if err != nil {
		t.Fatal(err)
	}
	// Initial: tp1=2, tp2=5, tp3=1 -> 8.
	if res.Stats.InitialTriples != 8 {
		t.Errorf("InitialTriples = %d, want 8", res.Stats.InitialTriples)
	}
	if res.Stats.AfterPruning > 4 {
		t.Errorf("AfterPruning = %d, want <= 4 (minimality)", res.Stats.AfterPruning)
	}
}

func TestPruningDisabledSameResults(t *testing.T) {
	// The prune ablation must not change results, only work.
	e1 := engineOver(t, figure32Graph(), Options{})
	e2 := engineOver(t, figure32Graph(), Options{DisablePruning: true, DisableActivePruning: true})
	r1, err := execString(e1, q2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := execString(e2, q2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowsAsStrings(r1), rowsAsStrings(r2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("ablation changed results: %v vs %v", a, b)
	}
}

func TestBGPOnlyQuery(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 1 || got[0] != "<Julia>|<Seinfeld>" {
		t.Fatalf("rows = %v", got)
	}
}

func TestEmptyMasterShortcut(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Nobody> <hasFriend> ?friend .
			OPTIONAL { ?friend <actedIn> ?sitcom . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
	if !res.Stats.EmptyShortcut {
		t.Error("init must short-circuit on an empty absolute master")
	}

	// The zero-count master comes last in text order, after two large
	// patterns, and its terms exist: (?y <mail> <Person>) has count 0 by
	// the index metadata. The plan decides the branch empty, so no route
	// loads a BitMat: the MatCache, warmed with the large patterns, sees
	// neither a hit nor a miss, and the trace has no load span.
	idx := indexOf(t, chainGraph())
	mc := NewMatCache(1 << 20)
	e = NewWithCache(idx, Options{Workers: 2}, mc.Advance(1))
	const big = `?x <knows> ?y . ?y <type> <Person> . `
	if _, err := execString(e, `SELECT * WHERE { `+big+`}`); err != nil {
		t.Fatal(err)
	}
	warm := mc.Stats()
	q, err := sparql.Parse(`SELECT * WHERE { ` + big + `?y <mail> <Person> . OPTIONAL { ?y <tel> ?t . } }`)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Prepare(q)
	for _, traced := range []bool{false, true} {
		var root *trace.Span
		if traced {
			root = trace.New("query").Root()
		}
		res, err := e.Execute(context.Background(), p, root)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if len(res.Rows) != 0 || !st.EmptyShortcut || st.InitialTriples != 840 || st.AfterPruning != 0 {
			t.Errorf("traced=%v: rows=%d stats=%+v, want 0 rows, the shortcut, 840 initial triples, 0 after pruning",
				traced, len(res.Rows), st)
		}
		if root == nil {
			continue
		}
		if ld := root.Find("load"); ld != nil {
			t.Errorf("an empty branch loaded %v", ld)
		}
		if at, _ := root.Find("branch").Attr("empty_pattern"); at != 2 {
			t.Errorf("branch span empty_pattern = %v, want 2", at)
		}
	}
	var st Stats
	if err := e.ExecuteStream(context.Background(), p, nil, func([]sparql.Var, Row) bool {
		t.Error("the stream route emitted a row")
		return true
	}, &st, nil); err != nil || !st.EmptyShortcut {
		t.Errorf("stream: err=%v shortcut=%v", err, st.EmptyShortcut)
	}
	if s := mc.Stats(); s.Hits != warm.Hits || s.Misses != warm.Misses {
		t.Errorf("cache hits/misses %d/%d -> %d/%d: an empty branch loaded", warm.Hits, warm.Misses, s.Hits, s.Misses)
	}
}

func TestEmptySlaveGivesNulls(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			OPTIONAL { ?friend <noSuchPredicate> ?x . } }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<Julia>|NULL", "<Larry>|NULL"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestProjectionAndDistinct(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `SELECT ?friend WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL { ?friend <actedIn> ?sitcom . } }`)
	if err != nil {
		t.Fatal(err)
	}
	// Julia acted in 4 sitcoms, Larry in 1 -> 5 rows projected to ?friend.
	if len(res.Rows) != 5 || len(res.Vars) != 1 {
		t.Fatalf("rows = %d vars = %v", len(res.Rows), res.Vars)
	}
	res2, err := execString(e, `SELECT DISTINCT ?friend WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL { ?friend <actedIn> ?sitcom . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2", len(res2.Rows))
	}
}

func TestSingleRowTPShapes(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	cases := []struct {
		src  string
		want int
	}{
		// (?v :p :o)
		{`SELECT * WHERE { ?who <actedIn> <CurbYourEnthu> . }`, 2},
		// (:s :p ?v)
		{`SELECT * WHERE { <Julia> <actedIn> ?sitcom . }`, 4},
		// (:s ?p ?o)
		{`SELECT * WHERE { <Jerry> ?p ?o . }`, 2},
		// (?s ?p :o)
		{`SELECT * WHERE { ?s ?p <CurbYourEnthu> . }`, 2},
		// (:s ?p :o)
		{`SELECT * WHERE { <Julia> ?p <Veep> . }`, 1},
		// all fixed, present
		{`SELECT * WHERE { <Julia> <actedIn> <Veep> . }`, 1},
		// all fixed, absent
		{`SELECT * WHERE { <Larry> <actedIn> <Veep> . }`, 0},
	}
	for _, c := range cases {
		res, err := execString(e, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.src, len(res.Rows), c.want)
		}
	}
}

func TestThreeVarPatternFullScan(t *testing.T) {
	// The paper's system rejects (?s ?p ?o); the store evaluates it as a
	// union of per-predicate scans, so the canonical dump query returns
	// every triple with all three columns bound.
	g := figure32Graph()
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != g.Len() {
		t.Fatalf("full scan returned %d rows, want %d", len(res.Rows), g.Len())
	}
	seen := map[string]bool{}
	for _, r := range res.Terms() {
		for i, term := range r {
			if term.IsZero() {
				t.Fatalf("NULL column %d in full-scan row %v", i, r)
			}
		}
		// Vars sort as o, p, s.
		seen[r[2].String()+" "+r[1].String()+" "+r[0].String()] = true
	}
	for _, tr := range g.Triples() {
		k := tr.S.String() + " " + tr.P.String() + " " + tr.O.String()
		if !seen[k] {
			t.Errorf("triple %s missing from full scan", k)
		}
	}
}

func TestSelfJoinPattern(t *testing.T) {
	g := figure32Graph()
	g.Add(rdf.T("Narcissus", "admires", "Narcissus"))
	g.Add(rdf.T("Echo", "admires", "Narcissus"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <admires> ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 1 || got[0] != "<Narcissus>" {
		t.Fatalf("rows = %v", got)
	}
}

func TestNestedOptionals(t *testing.T) {
	// P1 OPT (P2 OPT P3): friends, their sitcoms, and the sitcoms'
	// locations.
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			OPTIONAL {
				?friend <actedIn> ?sitcom .
				OPTIONAL { ?sitcom <location> ?loc . }
			}
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// Julia: 4 sitcoms each with a location; Larry: 1 sitcom with location.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5: %v", len(res.Rows), rowsAsStrings(res))
	}
	for _, r := range res.Rows {
		if r.NullCount() != 0 {
			t.Errorf("unexpected NULL in %v", rowsAsStrings(res))
		}
	}
}

func TestFilterOnMaster(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			OPTIONAL { ?friend <actedIn> ?sitcom . }
			FILTER (?friend != <Larry>)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rowsAsStrings(res) {
		if s[:7] == "<Larry>" {
			t.Errorf("Larry row survived the filter: %v", s)
		}
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (Julia's sitcoms)", len(res.Rows))
	}
}

func TestFilterInsideOptionalNullifies(t *testing.T) {
	// The FaN path: a filter scoped to the optional must not drop master
	// rows, only null the optional part.
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			OPTIONAL { ?friend <actedIn> ?sitcom . FILTER (?sitcom = <Seinfeld>) }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<Julia>|<Seinfeld>", "<Larry>|NULL"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestUnionQuery(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			{ <Jerry> <hasFriend> ?x . } UNION { ?x <location> <NewYorkCity> . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<Julia>", "<Larry>", "<Seinfeld>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestCyclicQueryLemma34(t *testing.T) {
	// A cyclic query whose slave has a single jvar: greedy order, no
	// best-match (Lemma 3.4).
	g := rdf.NewGraph()
	g.Add(rdf.T("a1", "p", "b1"))
	g.Add(rdf.T("b1", "q", "c1"))
	g.Add(rdf.T("c1", "r", "a1"))
	g.Add(rdf.T("a1", "extra", "x1"))
	g.Add(rdf.T("a2", "p", "b2"))
	g.Add(rdf.T("b2", "q", "c2"))
	// a2's triangle is incomplete: no (c2 r a2).
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?a <p> ?b . ?b <q> ?c . ?c <r> ?a .
			OPTIONAL { ?a <extra> ?x . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<a1>|<b1>|<c1>|<x1>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if res.Stats.BestMatch {
		t.Error("single-jvar slave must avoid best-match (Lemma 3.4)")
	}
}

func TestCyclicQueryNeedsBestMatch(t *testing.T) {
	// Cyclic with a 2-jvar slave: nullification and best-match fire.
	g := rdf.NewGraph()
	g.Add(rdf.T("a1", "p", "b1"))
	g.Add(rdf.T("b1", "q", "c1"))
	g.Add(rdf.T("c1", "r", "a1"))
	g.Add(rdf.T("a1", "s", "b1")) // slave matches
	g.Add(rdf.T("a2", "p", "b2"))
	g.Add(rdf.T("b2", "q", "c2"))
	g.Add(rdf.T("c2", "r", "a2"))
	// slave does not match a2/b2.
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?a <p> ?b . ?b <q> ?c . ?c <r> ?a .
			OPTIONAL { ?a <s> ?b . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BestMatch {
		t.Error("two-jvar slave in a cyclic query must use best-match")
	}
	got := rowsAsStrings(res)
	want := []string{"<a1>|<b1>|<c1>", "<a2>|<b2>|<c2>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// diffAgainstRef compares the engine against the reference evaluator on a
// query over a graph.
func diffAgainstRef(t *testing.T, g *rdf.Graph, src string) {
	t.Helper()
	q, want, vars := difftest.RefSrc(t, g, src)
	diffRun(t, engineOver(t, g, Options{}), q, want, vars, src)
}

func TestDifferentialSmallQueries(t *testing.T) {
	g := figure32Graph()
	queries := []string{
		q2,
		`SELECT * WHERE { ?a <actedIn> ?b . }`,
		`SELECT * WHERE { ?a <actedIn> ?b . ?b <location> ?c . }`,
		`SELECT * WHERE { <Jerry> <hasFriend> ?f . OPTIONAL { ?f <actedIn> ?s . OPTIONAL { ?s <location> ?l . } } }`,
		`SELECT * WHERE { ?f <actedIn> ?s . OPTIONAL { ?s <location> <NewYorkCity> . } }`,
		`SELECT * WHERE { ?s <location> ?l . OPTIONAL { ?a <actedIn> ?s . } }`,
		`SELECT * WHERE { <Jerry> <hasFriend> ?f . OPTIONAL { ?f <actedIn> ?s . } OPTIONAL { ?f <location> ?l . } }`,
		`SELECT * WHERE { { <Jerry> <hasFriend> ?x . } UNION { ?x <location> <NewYorkCity> . } }`,
		`SELECT * WHERE { ?a <hasFriend> ?f . ?f <actedIn> ?s . FILTER (?s != <Veep>) }`,
	}
	for _, src := range queries {
		diffAgainstRef(t, g, src)
	}
}

// ringGraph is four layers of n nodes, each node linked by <next> to every
// node of the following layer and the last layer to the first. Every node
// has in- and out-edges, so pruning keeps every triple, but the length of
// every directed cycle is a multiple of four.
func ringGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for l := range 4 {
		for i := range n {
			for j := range n {
				g.Add(rdf.T(fmt.Sprintf("n%d_%d", l, i), "next", fmt.Sprintf("n%d_%d", (l+1)%4, j)))
			}
		}
	}
	return g
}

func TestJoinDeadlineOnDeadCycle(t *testing.T) {
	// A five-cycle over the ring completes no row: the join visits 4n·n⁴
	// partial bindings (1.3e10 for n = 80) and every one dies on its last
	// pattern. Only a check counted per recursion step, not per emitted
	// row, ends it at the deadline.
	e := engineOver(t, ringGraph(80), Options{Workers: 2})
	q, err := sparql.Parse(`SELECT * WHERE {
		?a <next> ?b . ?b <next> ?c . ?c <next> ?d . ?d <next> ?e . ?e <next> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(ctx, e.Prepare(q), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the join ran a minute past its 50 ms deadline")
	}
}
