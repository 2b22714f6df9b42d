package engine

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// witnesslessGraph is a small fixed graph exercising every branch of the
// witnessless regression table below: <m1> has a matching friend pattern
// plus both optional alternatives, <m2> matches neither alternative, and
// <m3> matches only the witnessless one.
func witnesslessGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{
		rdf.T("m1", "p0", "x1"),
		rdf.T("x1", "p1", "z1"), // witnessed alternative matches for m1
		rdf.T("m1", "p2", "x1"), // witnessless alternative matches for m1
		rdf.T("m2", "p0", "x2"), // neither alternative matches for m2
		rdf.T("m3", "p0", "x3"),
		rdf.T("m3", "p2", "x3"), // only the witnessless alternative matches
		rdf.T("x3", "p4", "x3"),
	} {
		g.Add(tr)
	}
	return g
}

// witnesslessRegressionQueries is the fixed regression table for the
// rule-3 witnessless-alternative deviation: union alternatives under an
// OPTIONAL whose variables all occur in the master used to leave the
// rule-3 split without a witness column, so the minimum union could drop
// a genuinely matched row (it looked like a failed-split artifact) or
// keep duplicate bare-master rows (two failed branches produced identical
// rows with distinct conservative "matched" splits). The synthetic
// witness columns (algebra.SynthWitnessVar) close both holes; each entry
// here pins one shape against the reference evaluator.
var witnesslessRegressionQueries = []struct {
	name string
	src  string
}{
	// Minimal DROP shape: one witnessed alternative, one witnessless.
	// For m1 both alternatives match, so the bag union owes two rows —
	// the witnessless one used to be subsumed away.
	{"drop-min", `SELECT * WHERE { ?m <p0> ?x .
		OPTIONAL { { ?x <p1> ?z } UNION { ?m <p2> ?x } } }`},
	// Minimal DUPLICATE shape: every alternative witnessless. For m2
	// both fail, so exactly one bare-master row is owed — the two failed
	// branches used to each keep their own copy.
	{"dup-min", `SELECT * WHERE { ?m <p0> ?x .
		OPTIONAL { { ?m <p2> ?x } UNION { ?x <p4> ?x } } }`},
	// Mixed: witnessless alternative matches while the witnessed one
	// fails (m3), and vice versa (m1 via ?x <p1> ?z).
	{"mixed", `SELECT * WHERE { ?m <p0> ?x .
		OPTIONAL { { ?x <p1> ?z } UNION { ?x <p4> ?x } } }`},
	// Witnessless alternative nested beside a join with a master var
	// only: both union arms reuse only master variables.
	{"both-witnessless", `SELECT * WHERE { ?m <p0> ?x .
		OPTIONAL { { ?m <p2> ?x } UNION { ?m <p0> ?x } } }`},
}

// TestDifferentialWitnesslessUnionRegressions pins the fixed witnessless
// shapes against the reference evaluator as multisets, across worker
// counts, on the fixed graph and on random graphs.
func TestDifferentialWitnesslessUnionRegressions(t *testing.T) {
	forceParallel(t)
	graphs := append([]*rdf.Graph{witnesslessGraph()}, randGraphs(4242, 20, 20, 60)...)
	for _, tc := range witnesslessRegressionQueries {
		t.Run(tc.name, func(t *testing.T) {
			diffGraphs(t, tc.name, []string{tc.src}, graphs, []int{1, 2, 8},
				func(res *Result) { assertNoWitnessLeak(t, res) })
		})
	}
}

// assertNoWitnessLeak pins the invisibility of the synthetic witness
// machinery: hidden variables never reach the public column list, rows
// are exactly as wide as the public columns, and the internal witness
// marker term never appears in a cell.
func assertNoWitnessLeak(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Vars {
		if algebra.IsSynthWitnessVar(v) {
			t.Fatalf("synthetic witness variable leaked into result vars: %q", string(v))
		}
	}
	for i, r := range res.Terms() {
		if len(r) != len(res.Vars) {
			t.Fatalf("row %d has %d cells for %d public vars", i, len(r), len(res.Vars))
		}
		for _, cell := range r {
			if cell == witnessMatched {
				t.Fatalf("row %d leaked the internal witness marker %s", i, cell)
			}
		}
	}
}

// TestWitnesslessUnionStreaming pins the streaming entry point: witnessless
// shapes use rule 3, so they are collected and replayed, and the replay
// must still hand fn only public columns — header and rows alike.
func TestWitnesslessUnionStreaming(t *testing.T) {
	g := witnesslessGraph()
	for _, tc := range witnesslessRegressionQueries {
		q, err := sparql.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		e := engineOver(t, g, Options{})
		var cells *Cells
		err = e.ExecuteStream(t.Context(), e.Prepare(q), func(vars []sparql.Var, c *Cells) bool {
			cells = c
			for _, v := range vars {
				if algebra.IsSynthWitnessVar(v) {
					t.Fatalf("%s: streamed header leaked witness var %q", tc.name, string(v))
				}
			}
			return true
		}, func(vars []sparql.Var, row Row) bool {
			if len(row) != len(vars) {
				t.Fatalf("%s: streamed row width %d != %d vars", tc.name, len(row), len(vars))
			}
			for _, cell := range row {
				if cells.Term(cell) == witnessMatched {
					t.Fatalf("%s: streamed row leaked the witness marker", tc.name)
				}
			}
			return true
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
}
