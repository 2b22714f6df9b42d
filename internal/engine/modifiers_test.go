package engine

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

func modifierGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.Add(rdf.TL("a", "score", "10"))
	g.Add(rdf.TL("b", "score", "2"))
	g.Add(rdf.TL("c", "score", "30"))
	g.Add(rdf.T("a", "likes", "b"))
	return g
}

func TestOrderByNumeric(t *testing.T) {
	e := engineOver(t, modifierGraph(), Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric order: 2 < 10 < 30 (string order would give 10 < 2 < 30).
	want := []string{"2", "10", "30"}
	for i, r := range res.Terms() {
		sCol := r[indexOfVar(res, "s")]
		if sCol.Value != want[i] {
			t.Fatalf("row %d score = %s, want %s (rows %v)", i, sCol.Value, want[i], res.Rows)
		}
	}
}

func TestOrderByDesc(t *testing.T) {
	e := engineOver(t, modifierGraph(), Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } ORDER BY DESC(?s)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"30", "10", "2"}
	for i, r := range res.Terms() {
		if got := r[indexOfVar(res, "s")].Value; got != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.TL("x1", "grp", "A"))
	g.Add(rdf.TL("x2", "grp", "A"))
	g.Add(rdf.TL("x3", "grp", "B"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <grp> ?g . } ORDER BY ?g DESC(?x)`)
	if err != nil {
		t.Fatal(err)
	}
	xi := indexOfVar(res, "x")
	want := []string{"x2", "x1", "x3"}
	for i, r := range res.Terms() {
		if r[xi].Value != want[i] {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	e := engineOver(t, modifierGraph(), Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } ORDER BY ?s LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("LIMIT 2 gave %d rows", len(res.Rows))
	}
	res2, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } ORDER BY ?s OFFSET 1 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Terms()[0][indexOfVar(res2, "s")].Value != "10" {
		t.Fatalf("OFFSET 1 LIMIT 1 = %v", res2.Rows)
	}
	// Offset past the end.
	res3, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } OFFSET 99`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 0 {
		t.Fatalf("large OFFSET must empty the result, got %d", len(res3.Rows))
	}
	// LIMIT 0.
	res4, err := execString(e, `SELECT * WHERE { ?x <score> ?s . } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res4.Rows) != 0 {
		t.Fatalf("LIMIT 0 must empty the result")
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	// Unbound (NULL) optional values sort before bound ones.
	g := modifierGraph()
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?x <score> ?s .
			OPTIONAL { ?x <likes> ?y . }
		} ORDER BY ?y`)
	if err != nil {
		t.Fatal(err)
	}
	yi := indexOfVar(res, "y")
	if !res.Rows[0].IsNull(yi) || !res.Rows[1].IsNull(yi) {
		t.Fatalf("NULLs must sort first: %v", res.Rows)
	}
	if res.Rows[2].IsNull(yi) {
		t.Fatal("bound row must sort last")
	}
}

func TestOrderByBeforeProjection(t *testing.T) {
	// Sorting by a variable that is projected away must still order rows.
	e := engineOver(t, modifierGraph(), Options{})
	res, err := execString(e, `SELECT ?x WHERE { ?x <score> ?s . } ORDER BY DESC(?s)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 {
		t.Fatalf("vars = %v", res.Vars)
	}
	want := []string{"c", "a", "b"} // scores 30, 10, 2
	for i, r := range res.Terms() {
		if r[0].Value != want[i] {
			t.Fatalf("rows = %v, want order %v", res.Rows, want)
		}
	}
}

func TestModifierParseErrors(t *testing.T) {
	e := engineOver(t, modifierGraph(), Options{})
	for _, src := range []string{
		`SELECT * WHERE { ?x <score> ?s . } LIMIT -1`,
		`SELECT * WHERE { ?x <score> ?s . } LIMIT abc`,
		`SELECT * WHERE { ?x <score> ?s . } ORDER BY`,
		`SELECT * WHERE { ?x <score> ?s . } ORDER ?s`,
		`SELECT * WHERE { ?x <score> ?s . } ORDER BY DESC ?s`,
	} {
		if _, err := execString(e, src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func indexOfVar(res *Result, name string) int {
	for i, v := range res.Vars {
		if string(v) == name {
			return i
		}
	}
	panic(fmt.Sprintf("no var %s in %v", name, res.Vars))
}
