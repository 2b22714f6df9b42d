package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// Tiny scales keep unit tests fast; the real tables run from cmd/lbrbench
// and the root benchmarks.
func tinyLUBM(t *testing.T) *Dataset {
	t.Helper()
	ds, err := BuildLUBM(1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLUBMAllQueriesRunAndAgree(t *testing.T) {
	ds := tinyLUBM(t)
	ms, err := RunTable(ds, RunOptions{Runs: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 {
		t.Fatalf("measured %d queries, want 6", len(ms))
	}
	for _, m := range ms {
		if !m.Consistent {
			t.Errorf("%s: engines disagree", m.Query)
		}
	}
	// Q1-Q3 are the low-selectivity multi-OPT queries: they must touch a
	// sizable share of the data and produce results.
	for _, m := range ms[:3] {
		if m.Results == 0 {
			t.Errorf("%s produced no results; workload shape broken", m.Query)
		}
		if m.InitialTriples == 0 {
			t.Errorf("%s matched no triples", m.Query)
		}
	}
	// Q4/Q5 need best-match (cyclic, multi-jvar slave), Q6 does not:
	// the Table 6.2 shape.
	if !ms[3].BestMatch || !ms[4].BestMatch {
		t.Error("LUBM Q4/Q5 must require best-match (Table 6.2)")
	}
	if ms[5].BestMatch {
		t.Error("LUBM Q6 must not require best-match (Table 6.2)")
	}
	// Pruning must shrink the candidate triples on the big queries.
	for _, m := range ms[:3] {
		if m.AfterPruning >= m.InitialTriples {
			t.Errorf("%s: pruning did not shrink triples (%d -> %d)",
				m.Query, m.InitialTriples, m.AfterPruning)
		}
	}
}

// TestParallelMatchesSequentialOnSuite runs LUBM Q1-Q6 (Q4/Q5 under
// best-match) at workers {2,4} and demands the workers=1 rows, byte for
// byte and in order.
func TestParallelMatchesSequentialOnSuite(t *testing.T) {
	big, err := BuildLUBM(4)
	if err != nil {
		t.Fatal(err)
	}
	checkWorkersMatchSequential(t, big, big.Queries, false)
}

// TestUnionTableMatchesSequential does the same for the UNION set, which
// must also run several UNF branches per query and return rows.
func TestUnionTableMatchesSequential(t *testing.T) {
	big, err := BuildLUBM(4)
	if err != nil {
		t.Fatal(err)
	}
	checkWorkersMatchSequential(t, big, unionQueries, true)
}

// checkWorkersMatchSequential runs each query at workers 1, 2 and 4 on a
// dataset big enough that the parallel paths engage, and compares the
// rows through difftest.Exact. With multiBranch it also asserts that the
// sequential run traced >= 2 "branch" spans and returned rows.
func checkWorkersMatchSequential(t *testing.T, ds *Dataset, specs []QuerySpec, multiBranch bool) {
	t.Helper()
	seq := engine.New(ds.Index, engine.Options{Workers: 1})
	for _, spec := range specs {
		q, err := sparql.Parse(spec.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		root := trace.New("query").Root()
		res, err := seq.Execute(context.Background(), seq.Prepare(q), root)
		if err != nil {
			t.Fatalf("%s workers=1: %v", spec.ID, err)
		}
		want := difftest.Exact(res.Terms())
		if multiBranch {
			// The ?s ?p ?o expansion counts one branch per predicate.
			if n := len(root.FindAll("branch")); n < 2 {
				t.Errorf("%s: %d branches, want a multi-branch query", spec.ID, n)
			}
			if len(want) == 0 {
				t.Errorf("%s: no results, want a non-empty workload", spec.ID)
			}
		}
		for _, workers := range []int{2, 4} {
			e := engine.New(ds.Index, engine.Options{Workers: workers})
			got, err := e.Execute(context.Background(), e.Prepare(q), nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.ID, workers, err)
			}
			if d := difftest.Verdict(difftest.Exact(got.Terms()), want); d != "" {
				t.Errorf("%s workers=%d: rows differ from workers=1: %s", spec.ID, workers, d)
			}
		}
	}
}

// unionQueries are multi-branch UNION queries over the LUBM vocabulary,
// including the per-predicate branches of a ?s ?p ?o expansion, chosen so
// that branch scheduling, the shared-subpattern load cache and the
// adaptive partitioner all engage at workers > 1.
var unionQueries = []QuerySpec{
	{ID: "U1", Note: "three UNION branches with per-branch OPTIONALs", SPARQL: lubmPrefixes + `
		SELECT * WHERE {
			{ ?st ub:takesCourse ?course . OPTIONAL { ?st ub:emailAddress ?e . } }
			UNION { ?prof ub:teacherOf ?course . OPTIONAL { ?prof ub:researchInterest ?r . } }
			UNION { ?st ub:teachingAssistantOf ?course . }
		}`},
	{ID: "U2", Note: "branches share the ?st ub:memberOf ?dept subpattern", SPARQL: lubmPrefixes + `
		SELECT * WHERE {
			{ ?st ub:memberOf ?dept . ?st ub:emailAddress ?e . }
			UNION { ?st ub:memberOf ?dept . ?st ub:telephone ?t . }
			UNION { ?st ub:memberOf ?dept . ?st ub:undergraduateDegreeFrom ?u . }
		}`},
	{ID: "U3", Note: "full scan: one branch per predicate", SPARQL: `
		SELECT * WHERE { ?s ?p ?o . }`},
	{ID: "U4", Note: "full scan joined with a type constraint, OPTIONAL riding along", SPARQL: lubmPrefixes + `
		SELECT * WHERE {
			?s ?p ?o . ?s rdf:type ub:GraduateStudent .
			OPTIONAL { ?s ub:emailAddress ?e . }
		}`},
}

func TestUniProtAllQueriesRunAndAgree(t *testing.T) {
	ds, err := BuildUniProt(400)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunTable(ds, RunOptions{Runs: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 {
		t.Fatalf("measured %d queries, want 7", len(ms))
	}
	for _, m := range ms {
		if !m.Consistent {
			t.Errorf("%s: engines disagree", m.Query)
		}
		if m.BestMatch {
			t.Errorf("%s: all UniProt queries are acyclic (Table 6.3), best-match fired", m.Query)
		}
	}
	// Q2's empty-result early detection (Table 6.3 row Q2).
	if ms[1].Results != 0 {
		t.Errorf("Q2 should be empty, got %d results", ms[1].Results)
	}
	// Q1 must produce rows with NULLs (optional names missing).
	if ms[0].Results == 0 || ms[0].NullResults == 0 {
		t.Errorf("Q1 results=%d nulls=%d; optional sparsity broken", ms[0].Results, ms[0].NullResults)
	}
}

func TestDBPediaAllQueriesRunAndAgree(t *testing.T) {
	ds, err := BuildDBPedia(1500)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunTable(ds, RunOptions{Runs: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 {
		t.Fatalf("measured %d queries, want 6", len(ms))
	}
	for _, m := range ms {
		if !m.Consistent {
			t.Errorf("%s: engines disagree", m.Query)
		}
	}
	// Q2/Q3 reproduce the empty-result rows of Table 6.4.
	if ms[1].Results != 0 || ms[2].Results != 0 {
		t.Errorf("Q2/Q3 should be empty: %d / %d", ms[1].Results, ms[2].Results)
	}
	// Q1 is the low-selectivity winner row: results with many NULLs.
	if ms[0].Results == 0 || ms[0].NullResults == 0 {
		t.Errorf("Q1 results=%d nulls=%d", ms[0].Results, ms[0].NullResults)
	}
}

func TestTableRendering(t *testing.T) {
	ds := tinyLUBM(t)
	ms, err := RunTable(ds, RunOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FprintTable(&buf, "Table 6.2 (LUBM)", ms)
	out := buf.String()
	for _, want := range []string{"Tinit", "Tprune", "Ttotal", "TVirt", "TMonet", "Q1", "Q6"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTable61Rendering(t *testing.T) {
	var buf bytes.Buffer
	FprintTable61(&buf, map[string]rdf.Stats{
		"LUBM": {Triples: 100, Subjects: 10, Predicates: 5, Objects: 20},
	})
	if !strings.Contains(buf.String(), "LUBM") || !strings.Contains(buf.String(), "100") {
		t.Errorf("table 6.1 rendering broken:\n%s", buf.String())
	}
}

func TestGeometricMean(t *testing.T) {
	ms := []Measurement{
		{TTotal: 10 * time.Millisecond},
		{TTotal: 1000 * time.Millisecond},
	}
	gm := GeometricMeanMillis(ms, func(m Measurement) time.Duration { return m.TTotal })
	if gm < 99 || gm > 101 { // sqrt(10*1000) = 100
		t.Errorf("geometric mean = %v, want ~100", gm)
	}
}

func TestMovieQueryRuns(t *testing.T) {
	// The running example as a dataset: Figure 3.2 results at scale 0.
	g := datagen.MovieGraph(0)
	idx, err := bitmat.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Name: "movies", Graph: g, Index: idx, Queries: []QuerySpec{MovieQuery()}}
	ms, err := RunTable(ds, RunOptions{Runs: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Results != 2 || ms[0].NullResults != 1 {
		t.Errorf("movie query results=%d nulls=%d, want 2/1", ms[0].Results, ms[0].NullResults)
	}
}
