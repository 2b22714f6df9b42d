package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// TestNonWellDesignedQueryTransforms runs a non-well-designed query end to
// end: the engine applies the Appendix-B GoSN transformation (the inner
// left-outer join whose right side leaks a variable becomes an inner join
// under null-intolerant semantics).
func TestNonWellDesignedQueryTransforms(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("a1", "p", "j1"))
	g.Add(rdf.T("a1", "q", "y1"))
	g.Add(rdf.T("y1", "r", "j1")) // completes the violating pattern for a1
	g.Add(rdf.T("a2", "p", "j2"))
	g.Add(rdf.T("a2", "q", "y2")) // y2 has no r-edge to j2
	e := engineOver(t, g, Options{})
	// ?j occurs in the outer BGP and in the innermost optional but not in
	// the middle one: the classic NWD shape. The violation pair is
	// (SN2, SN0) and the undirected path between them crosses BOTH
	// unidirectional edges, so Appendix B converts the entire chain into
	// inner joins: {?a p ?j} JOIN {?a q ?y} JOIN {?y r ?j}.
	res, err := execString(e, `
		SELECT * WHERE {
			?a <p> ?j .
			OPTIONAL {
				?a <q> ?y .
				OPTIONAL { ?y <r> ?j . }
			}
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	// Only a1 completes the full (now inner) join; a2's missing r-edge
	// eliminates its row entirely under the null-intolerant treatment.
	want := []string{"<a1>|<j1>|<y1>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestCartesianFallback(t *testing.T) {
	// Two patterns with no shared variables: the multi-way join's
	// eligibility fallback enumerates the cross product.
	g := rdf.NewGraph()
	g.Add(rdf.T("a1", "p", "b1"))
	g.Add(rdf.T("a2", "p", "b2"))
	g.Add(rdf.T("x1", "q", "y1"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?a <p> ?b . ?x <q> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("cross product rows = %d, want 2", len(res.Rows))
	}
}

func TestCartesianWithOptional(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("a1", "p", "b1"))
	g.Add(rdf.T("x1", "q", "y1"))
	g.Add(rdf.T("b1", "r", "c1"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?a <p> ?b . ?x <q> ?y .
			OPTIONAL { ?b <r> ?c . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0].NullCount() != 0 {
		t.Error("optional should have matched")
	}
}

// TestConcurrentQueries documents and verifies the engine's read-only
// concurrency contract: one index, many goroutines querying in parallel.
func TestConcurrentQueries(t *testing.T) {
	g := figure32Graph()
	e := engineOver(t, g, Options{})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				res, err := execString(e, q2)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 2 {
					errs <- fmt.Errorf("got %d rows", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueryUnknownTermsEmptyNotError(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	// Unknown IRIs anywhere in a pattern yield empty matches, not errors.
	cases := []string{
		`SELECT * WHERE { <NoSuch> <hasFriend> ?x . }`,
		`SELECT * WHERE { ?x <noSuchPred> ?y . }`,
		`SELECT * WHERE { ?x <hasFriend> <NoSuchObj> . }`,
	}
	for _, src := range cases {
		res, err := execString(e, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: rows = %d, want 0", src, len(res.Rows))
		}
	}
}

func TestDeeplyNestedOptionals(t *testing.T) {
	// A 4-deep OPT chain: each level may or may not match.
	g := rdf.NewGraph()
	g.Add(rdf.T("r", "p0", "a"))
	g.Add(rdf.T("a", "p1", "b"))
	g.Add(rdf.T("b", "p2", "c"))
	// No p3 edge from c: the innermost level is NULL.
	g.Add(rdf.T("r2", "p0", "x"))
	// x has no p1 edge: everything below is NULL.
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			?r <p0> ?a .
			OPTIONAL { ?a <p1> ?b .
				OPTIONAL { ?b <p2> ?c .
					OPTIONAL { ?c <p3> ?d . } } }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	want := []string{"<a>|<b>|<c>|NULL|<r>", "<x>|NULL|NULL|NULL|<r2>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestSharedVarAcrossOptionalBranches(t *testing.T) {
	// Two sibling optionals both extending the master var (well-designed:
	// the shared var ?f is in the master).
	g := figure32Graph()
	g.Add(rdf.T("Julia", "bornIn", "NewYorkCity"))
	e := engineOver(t, g, Options{})
	res, err := execString(e, `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?f .
			OPTIONAL { ?f <actedIn> ?s . }
			OPTIONAL { ?f <bornIn> ?c . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// Julia: 4 sitcoms x 1 birthplace; Larry: 1 sitcom, no birthplace.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5: %v", len(res.Rows), rowsAsStrings(res))
	}
	larryNull := false
	for _, s := range rowsAsStrings(res) {
		if s == "NULL|<Larry>|<CurbYourEnthu>" {
			larryNull = true
		}
	}
	if !larryNull {
		t.Errorf("Larry's birthplace must be NULL: %v", rowsAsStrings(res))
	}
}

func TestEmptyGraphQueries(t *testing.T) {
	e := engineOver(t, rdf.NewGraph(), Options{})
	res, err := execString(e, `SELECT * WHERE { ?s <p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Error("empty graph must give empty results")
	}
}
