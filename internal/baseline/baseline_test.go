package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

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

func baselineOver(t *testing.T, g *rdf.Graph, policy Policy) *Engine {
	t.Helper()
	idx, err := bitmat.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx, policy)
}

const q2 = `
	SELECT * WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . }}`

func TestBaselineQ2BothPolicies(t *testing.T) {
	for _, pol := range []Policy{OriginalOrder, SelectiveMaster} {
		e := baselineOver(t, figure32Graph(), pol)
		res, err := e.ExecuteString(q2)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		got := res.SortedRowStrings()
		want := []string{"<Julia>|<Seinfeld>", "<Larry>|NULL"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v rows = %v, want %v", pol, got, want)
		}
	}
}

func TestBaselineThreeVarFullScan(t *testing.T) {
	g := figure32Graph()
	e := baselineOver(t, g, OriginalOrder)
	res, err := e.ExecuteString(`SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != g.Len() {
		t.Fatalf("full scan returned %d rows, want %d", len(res.Rows), g.Len())
	}
	for _, r := range res.Rows {
		for i, term := range r {
			if term.IsZero() {
				t.Fatalf("NULL column %d in full-scan row %v", i, r)
			}
		}
	}
}

func TestBaselineScanShapes(t *testing.T) {
	e := baselineOver(t, figure32Graph(), OriginalOrder)
	cases := []struct {
		src  string
		want int
	}{
		{`SELECT * WHERE { ?who <actedIn> <CurbYourEnthu> . }`, 2},
		{`SELECT * WHERE { <Julia> <actedIn> ?sitcom . }`, 4},
		{`SELECT * WHERE { <Jerry> ?p ?o . }`, 2},
		{`SELECT * WHERE { ?s ?p <CurbYourEnthu> . }`, 2},
		{`SELECT * WHERE { <Julia> ?p <Veep> . }`, 1},
		{`SELECT * WHERE { <Julia> <actedIn> <Veep> . }`, 1},
		{`SELECT * WHERE { <Larry> <actedIn> <Veep> . }`, 0},
		{`SELECT * WHERE { ?x <actedIn> ?y . ?y <location> ?z . }`, 5},
	}
	for _, c := range cases {
		res, err := e.ExecuteString(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.src, len(res.Rows), c.want)
		}
	}
}

func TestBaselineSelfJoinPattern(t *testing.T) {
	g := figure32Graph()
	g.Add(rdf.T("Narcissus", "admires", "Narcissus"))
	g.Add(rdf.T("Echo", "admires", "Narcissus"))
	e := baselineOver(t, g, SelectiveMaster)
	res, err := e.ExecuteString(`SELECT * WHERE { ?x <admires> ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "Narcissus" {
		t.Fatalf("rows = %v", res.SortedRowStrings())
	}
}

func TestBaselineFilters(t *testing.T) {
	e := baselineOver(t, figure32Graph(), SelectiveMaster)
	res, err := e.ExecuteString(`
		SELECT * WHERE {
			<Jerry> <hasFriend> ?f .
			OPTIONAL { ?f <actedIn> ?s . FILTER (?s != <Veep>) }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.SortedRowStrings() {
		if s == "<Julia>|<Veep>" {
			t.Error("filtered row survived")
		}
	}
	// Julia keeps 3 sitcoms, Larry 1.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(res.Rows), res.SortedRowStrings())
	}
}

func TestBaselineUnion(t *testing.T) {
	e := baselineOver(t, figure32Graph(), OriginalOrder)
	res, err := e.ExecuteString(`
		SELECT * WHERE {
			{ <Jerry> <hasFriend> ?x . } UNION { ?x <location> <NewYorkCity> . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.SortedRowStrings()
	want := []string{"<Julia>", "<Larry>", "<Seinfeld>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v", got)
	}
}

func TestBaselineProjection(t *testing.T) {
	e := baselineOver(t, figure32Graph(), OriginalOrder)
	res, err := e.ExecuteString(`SELECT DISTINCT ?friend WHERE {
		<Jerry> <hasFriend> ?friend . OPTIONAL { ?friend <actedIn> ?s . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Vars) != 1 {
		t.Fatalf("rows=%d vars=%v", len(res.Rows), res.Vars)
	}
}

// TestBaselineDifferentialAgainstRef runs the kit's Baseline mix — a
// variable chain with single-pattern OPTIONALs — under both policies
// against the reference evaluator.
func TestBaselineDifferentialAgainstRef(t *testing.T) {
	for _, pol := range []Policy{OriginalOrder, SelectiveMaster} {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			g := difftest.Graph(rng, 20+rng.Intn(50))
			src, _ := difftest.Query(rng, difftest.Baseline)
			q, want, vars := difftest.RefSrc(t, g, src)
			res, err := baselineOver(t, g, pol).Execute(q)
			if err != nil {
				t.Fatalf("%v on %q: %v", pol, src, err)
			}
			if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows, vars), want); v != "" {
				t.Fatalf("%v trial %d on %s: %s", pol, trial, src, v)
			}
		}
	}
}

// TestBaselineEstimateExact pins the selectivity estimate to the exact
// number of matching triples on every pattern shape, the full scan
// (?s ?p ?o) and the predicate lookup (:s ?p :o) included.
func TestBaselineEstimateExact(t *testing.T) {
	g := figure32Graph()
	g.Add(rdf.T("Julia", "livesIn", "Seinfeld")) // a second Julia -> Seinfeld link
	e := baselineOver(t, g, SelectiveMaster)
	node := func(name, v string) sparql.Node {
		if name == "" {
			return sparql.V(v)
		}
		return sparql.IRINode(name)
	}
	for _, c := range []struct {
		s, p, o string
		want    int64
	}{
		{"", "", "", 12},
		{"Julia", "", "Seinfeld", 2},
		{"Julia", "", "", 5},
		{"", "", "CurbYourEnthu", 2},
		{"", "actedIn", "", 5},
		{"Julia", "actedIn", "", 4},
		{"", "actedIn", "CurbYourEnthu", 2},
		{"Julia", "actedIn", "Seinfeld", 1},
		{"Larry", "actedIn", "Seinfeld", 0},
		{"Nobody", "", "", 0},
	} {
		tp := sparql.TriplePattern{S: node(c.s, "s"), P: node(c.p, "p"), O: node(c.o, "o")}
		var brute int64
		for _, tr := range g.Triples() {
			if (c.s == "" || tr.S == rdf.NewIRI(c.s)) && (c.p == "" || tr.P == rdf.NewIRI(c.p)) && (c.o == "" || tr.O == rdf.NewIRI(c.o)) {
				brute++
			}
		}
		if brute != c.want {
			t.Fatalf("%s: table says %d, graph has %d", tp, c.want, brute)
		}
		if got := e.estimate(tp); got != c.want {
			t.Errorf("estimate(%s) = %d, want %d", tp, got, c.want)
		}
	}
}
