package lbr

import (
	"context"
	"strings"
	"testing"
)

// witnesslessStoreTriples seeds the store-level witnessless sweep: three
// master subjects whose OPTIONAL alternatives respectively both match,
// neither match, and only the witnessless one matches, plus a few decoy
// edges.
func witnesslessStoreTriples() []Triple {
	return []Triple{
		TripleIRI("m1", "p0", "x1"),
		TripleIRI("x1", "p1", "z1"),
		TripleIRI("m1", "p2", "x1"),
		TripleIRI("m2", "p0", "x2"),
		TripleIRI("m3", "p0", "x3"),
		TripleIRI("m3", "p2", "x3"),
		TripleIRI("x3", "p4", "x3"),
		TripleIRI("m4", "p0", "x4"),
		TripleIRI("x4", "p4", "x4"),
		TripleIRI("m5", "p1", "x5"),
	}
}

// witnesslessStoreQueries are the fixed witnessless-union shapes of the
// rule-3 regression (see internal/engine/union_witness_test.go for the
// engine-level table): union alternatives under an OPTIONAL whose
// variables all occur in the master, carried by synthetic witness columns
// through the minimum union.
var witnesslessStoreQueries = []string{
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?x <p1> ?z } UNION { ?m <p2> ?x } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p2> ?x } UNION { ?x <p4> ?x } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?x <p1> ?z } UNION { ?x <p4> ?x } } }`,
	`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p2> ?x } UNION { ?m <p0> ?x } } }`,
}

// TestWitnesslessUnionStoreSweep pins the fixed witnessless shapes at the
// store level across Workers ∈ {1, 2, 8}: every run must agree with the
// reference evaluator as a sorted multiset, and the rendered result must
// be byte-identical across worker counts. The rendered output must also
// never leak the synthetic witness machinery.
func TestWitnesslessUnionStoreSweep(t *testing.T) {
	storeSweep(t, witnesslessStoreTriples(), witnesslessStoreQueries, []int{1, 2, 8}, 25,
		func(src, rendered string) { assertNoWitnessMarkers(t, src, "Result.String()", rendered) })
}

// TestWitnesslessUnionStoreStreaming pins the streaming surface: rows
// handed to QueryStreamRowsObserved are exactly as wide as the header, and
// neither header nor cells carry the witness machinery.
func TestWitnesslessUnionStoreStreaming(t *testing.T) {
	s := NewStoreWithOptions(Options{Workers: 2})
	s.AddAll(witnesslessStoreTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	for _, src := range witnesslessStoreQueries {
		err := s.QueryStreamRowsObserved(context.Background(), src, nil, nil, func(vars []string, row []Term) bool {
			for _, v := range vars {
				assertNoWitnessMarkers(t, src, "streamed header", v)
			}
			if row == nil { // header announcement
				return true
			}
			if len(row) != len(vars) {
				t.Fatalf("%q: streamed row width %d != %d header vars", src, len(row), len(vars))
			}
			for _, cell := range row {
				if !cell.IsZero() {
					assertNoWitnessMarkers(t, src, "streamed cell", cell.String())
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWitnesslessUnionExplain pins the EXPLAIN surface: the plan rendering
// lists only public variables.
func TestWitnesslessUnionExplain(t *testing.T) {
	s := NewStoreWithOptions(Options{})
	s.AddAll(witnesslessStoreTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	for _, src := range witnesslessStoreQueries {
		out, err := s.Explain(src)
		if err != nil {
			t.Fatal(err)
		}
		assertNoWitnessMarkers(t, src, "Explain", out)
	}
}

// assertNoWitnessMarkers fails when a rendered surface carries either the
// internal witness marker IRI or the hidden variable's NUL-prefixed name.
func assertNoWitnessMarkers(t *testing.T, query, surface, rendered string) {
	t.Helper()
	for _, bad := range []string{"urn:lbr:witness", "\x00w:"} {
		if strings.Contains(rendered, bad) {
			t.Fatalf("%s leaked witness internals (%q)\nquery: %s\noutput:\n%s",
				surface, bad, query, rendered)
		}
	}
}
