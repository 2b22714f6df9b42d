package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestFullScanJoinsOtherPatterns exercises a three-variable pattern whose
// subject joins a concrete pattern: the expansion must behave as a plain
// per-predicate union, not only as the standalone dump.
func TestFullScanJoinsOtherPatterns(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	// ?s of the full scan joins the sitcoms Julia acted in; every triple
	// about those sitcoms (their location statements) must come back with
	// ?p bound to location.
	res, err := execString(e, `SELECT * WHERE { <Julia> <actedIn> ?s . ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{
		"<D.C.>|<location>|<Veep>",
		"<Jersey>|<location>|<NewAdvOldChristine>",
		"<LosAngeles>|<location>|<CurbYourEnthu>",
		"<NewYorkCity>|<location>|<Seinfeld>",
	}
	if v := difftest.Verdict(got, want); v != "" {
		t.Fatal(v)
	}
}

// TestFullScanUnderOptional pins the left-outer behavior: a friend with no
// statements about it yields exactly one row with NULL ?p/?x (one, not one
// per predicate — the union's best-match must collapse them), and matched
// friends bind the concrete predicate.
func TestFullScanUnderOptional(t *testing.T) {
	g := figure32Graph()
	// NYC occurs only as an object, so the OPTIONAL finds nothing for it.
	g.Add(rdf.T("Jerry", "hasFriend", "NewYorkCity"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE {
		<Jerry> <hasFriend> ?f . OPTIONAL { ?f ?p ?x . } }`)
	if err != nil {
		t.Fatal(err)
	}
	var nullRows, julia, larry int
	for _, r := range res.Terms() {
		// Vars sort as f, p, x.
		switch {
		case r[1].IsZero() != r[2].IsZero():
			t.Fatalf("half-bound OPTIONAL row %v", r)
		case r[1].IsZero():
			nullRows++
			if r[0].Value != "NewYorkCity" {
				t.Errorf("unexpected NULL row for %s", r[0])
			}
		case r[0].Value == "Julia":
			julia++
			if r[1].Value != "actedIn" {
				t.Errorf("Julia row predicate = %s", r[1])
			}
		case r[0].Value == "Larry":
			larry++
		}
	}
	if nullRows != 1 || julia != 4 || larry != 1 {
		t.Fatalf("nullRows=%d julia=%d larry=%d, want 1/4/1 in rows %v", nullRows, julia, larry, res.Rows)
	}
}

// TestRule3UnionCollapsesNullRows is the plain-UNION analogue of the
// full-scan OPTIONAL case: a master row unmatched in every union branch
// must survive the minimum union exactly once.
func TestRule3UnionCollapsesNullRows(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("Jerry", "hasFriend", "Julia"))
	g.Add(rdf.T("Jerry", "hasFriend", "NYC"))
	g.Add(rdf.T("Julia", "actedIn", "Seinfeld"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { <Jerry> <hasFriend> ?f .
		OPTIONAL { { ?f <actedIn> ?x . } UNION { ?f <location> ?x . } } }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if v := difftest.Verdict(got, []string{"<Julia>|<Seinfeld>", "<NYC>|NULL"}); v != "" {
		t.Fatal(v)
	}
}

// TestRule3DedupScopedToDistributionGroup pins that the minimum-union
// collapse stays inside one rule-3 distribution group: a genuine
// user-written UNION branch that produces the same NULL row keeps its bag
// duplicate (the reference evaluator returns that row twice).
func TestRule3DedupScopedToDistributionGroup(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("s1", "p", "o1"))
	g.Add(rdf.T("s2", "p", "o2"))
	g.Add(rdf.T("o2", "q", "x2"))
	const src = `SELECT * WHERE {
		{ ?s <p> ?o . OPTIONAL { { ?o <q> ?x . } UNION { ?o <r> ?x . } } }
		UNION
		{ ?s <p> ?o . OPTIONAL { ?o <q> ?x . } } }`
	q, want, _ := difftest.RefSrc(t, g, src)
	e := engineOver(t, g, Options{})
	res, err := e.Execute(context.Background(), e.Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != len(want) {
		t.Fatalf("engine rows %v, reference %v", got, want)
	}
	// The NULL row must appear exactly twice: collapsed within the rule-3
	// pair of the first alternative, preserved across the genuine UNION.
	nulls := 0
	for _, r := range got {
		if strings.Contains(r, "NULL") {
			nulls++
		}
	}
	if nulls != 2 {
		t.Fatalf("NULL row appears %d times, want 2 (rows %v)", nulls, got)
	}
}

// TestIndependentSplitsMatchReference covers the case of two independent
// rule-3 splits (or expanded three-variable patterns) in one branch where
// only a subset fails per row: the collapse must key on the matched
// splits' choices, not require every split to fail.
func TestIndependentSplitsMatchReference(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("x", "a", "y"))
	g.Add(rdf.T("x", "b", "z"))
	// Two expanded full-scan OPTIONALs: the first fails (y is not a
	// subject), the second matches once per predicate.
	diffAgainstRef(t, g, `SELECT * WHERE {
		?x <a> ?y . OPTIONAL { ?y ?p1 ?o1 . } OPTIONAL { ?x ?p2 ?o2 . } }`)
	// Two independent rule-3 unions under OPTIONAL: the first fails, the
	// second matches in one alternative.
	diffAgainstRef(t, g, `SELECT * WHERE {
		?x <a> ?y .
		OPTIONAL { { ?y <a> ?o1 . } UNION { ?y <b> ?o1 . } }
		OPTIONAL { { ?x <b> ?o2 . } UNION { ?x <c> ?o2 . } } }`)
	// Mixed: a rule-3 union plus an expanded full scan.
	diffAgainstRef(t, g, `SELECT * WHERE {
		?x <a> ?y .
		OPTIONAL { { ?y <a> ?o1 . } UNION { ?y <b> ?o1 . } }
		OPTIONAL { ?x ?p2 ?o2 . } }`)
}

// TestCheapFilterSubstitutionBindsColumn pins that a whole-scope equality
// filter folded into the patterns still binds the substituted variable in
// the result rows — including the predicate position, which the full-scan
// support newly reaches (it used to error before it could mis-answer).
func TestCheapFilterSubstitutionBindsColumn(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("x", "a", "y1"))
	g.Add(rdf.T("x", "a", "y2"))
	g.Add(rdf.T("x", "b", "z"))
	diffAgainstRef(t, g, `SELECT * WHERE { ?s ?p ?o . FILTER(?p = <a>) }`)
	diffAgainstRef(t, g, `SELECT * WHERE { ?s <a> ?o . FILTER(?o = <y1>) }`)
	diffAgainstRef(t, g, `SELECT * WHERE { <x> <a> ?m . <x> <a> ?n . FILTER(?m = ?n) }`)

	// And via the streaming path.
	e := engineOver(t, g, Options{})
	q, err := sparql.Parse(`SELECT * WHERE { ?s ?p ?o . FILTER(?p = <a>) }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var cells *Cells
	header := func(_ []sparql.Var, c *Cells) bool {
		cells = c
		return true
	}
	if err := e.ExecuteStream(t.Context(), e.Prepare(q), header, func(vars []sparql.Var, row Row) bool {
		n++
		for i, v := range vars {
			if p := cells.Term(row[i]); v == "p" && (p.IsZero() || p.Value != "a") {
				t.Fatalf("streamed ?p = %v, want <a>", p)
			}
		}
		return true
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("streamed %d rows, want 2", n)
	}
}

// TestFullScanSelfJoin covers (?x ?p ?x): the diagonal of every predicate.
func TestFullScanSelfJoin(t *testing.T) {
	g := figure32Graph()
	g.Add(rdf.T("Narcissus", "admires", "Narcissus"))
	g.Add(rdf.T("Echo", "admires", "Narcissus"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?x ?p ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 1 || got[0] != "<admires>|<Narcissus>" {
		t.Fatalf("rows = %v, want the Narcissus diagonal", got)
	}
}

// TestFullScanPredicateJoinStillRejected pins that the rewrite does not
// silently drop predicate joins the index cannot answer.
func TestFullScanPredicateJoinStillRejected(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	for _, src := range []string{
		`SELECT * WHERE { ?a ?p ?b . ?c ?p ?d . }`,
		`SELECT * WHERE { ?a ?p ?b . ?x <rel> ?p . }`,
	} {
		_, err := execString(e, src)
		if !errors.Is(err, algebra.ErrPredicateJoin) {
			t.Errorf("%s: err = %v, want ErrPredicateJoin", src, err)
		}
	}
}

// TestFullScanStreamAndAsk covers the streaming path (which ASK rides):
// the dump streams every triple, and ASK short-circuits.
func TestFullScanStreamAndAsk(t *testing.T) {
	g := figure32Graph()
	e := engineOver(t, g, Options{})
	q, err := sparql.Parse(`SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := e.ExecuteStream(t.Context(), e.Prepare(q), nil, func(vars []sparql.Var, row Row) bool {
		for _, cell := range row {
			if cell == 0 {
				t.Fatalf("NULL column in streamed row %v", row)
			}
		}
		n++
		return true
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n != g.Len() {
		t.Fatalf("streamed %d rows, want %d", n, g.Len())
	}

	aq, err := sparql.Parse(`ASK { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.AskContext(context.Background(), e.Prepare(aq), nil)
	if err != nil || !ok {
		t.Fatalf("ASK dump = %v/%v, want true", ok, err)
	}
	empty := engineOver(t, rdf.NewGraph(), Options{})
	ok, err = empty.AskContext(context.Background(), empty.Prepare(aq), nil)
	if err != nil || ok {
		t.Fatalf("ASK on empty store = %v/%v, want false", ok, err)
	}
}

// TestFullScanParallelMatchesSequential pins order-identical output
// across worker counts for the expanded union.
func TestFullScanParallelMatchesSequential(t *testing.T) {
	g := figure32Graph()
	var want []string
	for _, workers := range []int{1, 2, 8} {
		e := engineOver(t, g, Options{Workers: workers})
		res, err := execString(e, `SELECT * WHERE { ?s ?p ?o . }`)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = r.key()
		}
		if workers == 1 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d differs from sequential", workers, i)
			}
		}
	}
}
