package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sparql"
)

func TestDescribePlan(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(e.Prepare(q))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"branch 0", "SN0->SN1", "OPT", "cyclic=false", "greedy=false", "best-match=false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeEmptyMaster(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(`
		SELECT * WHERE {
			{ ?x <actedIn> ?y . ?y <location> <Jerry> . } UNION { ?x <hasFriend> ?y . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(e.Prepare(q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "empty: pattern 1 ?y <location> <Jerry>") {
		t.Errorf("Describe must name the zero-count master:\n%s", out)
	}
	if strings.Count(out, "empty:") != 1 {
		t.Errorf("only branch 0 is empty:\n%s", out)
	}
}

func TestDescribeUnionBranches(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(`
		SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(e.Prepare(q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "branch 0") || !strings.Contains(out, "branch 1") {
		t.Errorf("Describe must show both union branches:\n%s", out)
	}
}

func TestDescribeCyclicFlags(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(`
		SELECT * WHERE {
			?a <actedIn> ?b . ?b <location> ?c . ?c <hasFriend> ?a .
			OPTIONAL { ?a <actedIn> ?b . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(e.Prepare(q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cyclic=true") || !strings.Contains(out, "best-match=true") {
		t.Errorf("cyclic multi-jvar-slave query flags wrong:\n%s", out)
	}
}

func TestStatsAccumulation(t *testing.T) {
	// Union queries accumulate per-branch stats.
	e := engineOver(t, figure32Graph(), Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InitialTriples != 7 { // 5 actedIn + 2 hasFriend
		t.Errorf("InitialTriples = %d, want 7", res.Stats.InitialTriples)
	}
	if res.Stats.Results != len(res.Rows) || res.Stats.Results != 7 {
		t.Errorf("Results = %d rows = %d", res.Stats.Results, len(res.Rows))
	}
	if res.Stats.Total <= 0 {
		t.Error("Total time must be positive")
	}
}

func TestEngineStreamMatchesExecute(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), e.Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	var streamVars []sparql.Var
	if err := e.ExecuteStream(t.Context(), e.Prepare(q), nil, func(vars []sparql.Var, row Row) bool {
		streamed++
		streamVars = vars
		if len(row) != len(vars) {
			t.Fatalf("row width %d != vars %d", len(row), len(vars))
		}
		return true
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if streamed != len(res.Rows) {
		t.Fatalf("streamed %d rows, Execute gave %d", streamed, len(res.Rows))
	}
	if len(streamVars) != len(res.Vars) {
		t.Fatalf("stream vars %v vs %v", streamVars, res.Vars)
	}
}
