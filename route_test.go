package lbr

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/rdf"
)

// routeTestTriples is the dataset of the route-agreement suite: 40
// subjects, each with a type and a link to the next subject (a ring), plus
// an email on every second subject and a phone on every third, so
// OPTIONAL slaves bind on some masters and stay NULL on others. The
// predicate <email> is also a typed subject and the object of a
// <seeAlso>, so one IRI binds a variable both in a predicate position and
// in a subject or object one.
func routeTestTriples() []Triple {
	ts := []Triple{
		TripleIRI("email", "type", "class0"),
		TripleIRI("s0", "seeAlso", "email"),
	}
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("s%d", i)
		ts = append(ts,
			TripleIRI(s, "type", fmt.Sprintf("class%d", i%3)),
			TripleIRI(s, "linked", fmt.Sprintf("s%d", (i+1)%40)))
		if i%2 == 0 {
			ts = append(ts, TripleIRI(s, "email", fmt.Sprintf("m%d", i)))
		}
		if i%3 == 0 {
			ts = append(ts, TripleIRI(s, "phone", fmt.Sprintf("t%d", i)))
		}
	}
	return ts
}

// routeProbes covers stars with and without (nested) OPTIONAL, FILTER, a
// variable predicate, the solution modifiers (over an OPTIONAL too), a
// chain join, the three-variable scan, a constant subject, UNION, a
// cyclic OPTIONAL that needs best-match under a cheap filter, whose
// binding the join sink re-injects, and a variable that one UNION arm
// binds in a predicate position (a ?s ?x ?o expansion) and the other in a
// subject or object one, under DISTINCT and under best-match: the same
// IRI must be one value on both arms.
var routeProbes = []struct {
	id string
	q  string
	// sliced marks probes with LIMIT/OFFSET. The reference evaluator and
	// the relational baseline implement neither ORDER BY nor slicing, so
	// sliced probes are compared across the engine's own routes only.
	sliced bool
	// bestMatch marks a probe whose plan must need best-match.
	bestMatch bool
}{
	{id: "star", q: `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t }`},
	{id: "star-optional", q: `SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } }`},
	{id: "star-nested-optional", q: `SELECT * WHERE { ?s <linked> ?t . OPTIONAL { ?s <email> ?e . OPTIONAL { ?s <phone> ?p } } }`},
	{id: "star-filter", q: `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t . FILTER (?c != <class0>) }`},
	{id: "star-varpred", q: `SELECT * WHERE { ?s ?p <class0> }`},
	{id: "star-distinct", q: `SELECT DISTINCT ?c WHERE { ?s <type> ?c . ?s <email> ?e }`},
	{id: "star-orderby", q: `SELECT ?s ?e WHERE { ?s <email> ?e . ?s <type> <class0> } ORDER BY ?s ?e`},
	{id: "star-slice", q: `SELECT ?s ?c WHERE { ?s <type> ?c } ORDER BY ?s ?c OFFSET 5 LIMIT 10`, sliced: true},
	{id: "chain", q: `SELECT * WHERE { ?s <linked> ?t . ?t <email> ?e }`},
	{id: "scan", q: `SELECT * WHERE { ?s ?p ?o }`},
	{id: "const-subject", q: `SELECT * WHERE { <s0> ?p ?o }`},
	{id: "union", q: `SELECT * WHERE { { ?s <email> ?e } UNION { ?s <phone> ?e } }`},
	{id: "optional-limit", q: `SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } } LIMIT 3`, sliced: true},
	{id: "optional-projected", q: `SELECT ?s ?c WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } }`},
	{id: "cheap-filter-best-match", q: `SELECT * WHERE { ?s <linked> ?t . ?s <email> ?e . OPTIONAL { ?t <linked> ?u . ?s <type> ?c . ?u <type> ?c } FILTER (?e = <m4>) }`, bestMatch: true},
	{id: "distinct-mixed-space", q: `SELECT DISTINCT ?x WHERE { { ?s ?x ?o } UNION { ?x <type> ?c } }`},
	{id: "best-match-mixed-space", q: `SELECT * WHERE { ?s <type> ?c . OPTIONAL { { ?s ?x ?o } UNION { ?s <seeAlso> ?x } } }`, bestMatch: true},
	{id: "best-match-mixed-space-distinct", q: `SELECT DISTINCT ?s ?x WHERE { ?s <type> ?c . OPTIONAL { { ?s ?x ?o } UNION { ?s <seeAlso> ?x } } }`, bestMatch: true},
}

// countStats is Stats without its durations: the fields every route of
// one query must report identically.
func countStats(st Stats) Stats {
	return Stats{
		InitialTriples: st.InitialTriples,
		AfterPruning:   st.AfterPruning,
		Results:        st.Results,
		NullResults:    st.NullResults,
		BestMatch:      st.BestMatch,
		EmptyShortcut:  st.EmptyShortcut,
	}
}

func newRouteTestStore(t *testing.T, workers int) *Store {
	t.Helper()
	s := NewStoreWithOptions(Options{Workers: workers})
	s.AddAll(routeTestTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRouteAgreement runs every probe through each way the store answers
// a query and requires them to agree, at workers {1, 2, 4}:
//
//   - Query's Stats count its rows: Results the rows returned and
//     NullResults those holding an unbound cell;
//   - QueryStreamRowsObserved announces the header exactly once and then replays
//     Query's rows cell for cell, in Query's order, with Query's Stats;
//   - Result.Iterate's maps are Query's Rows, in order, with exactly
//     the unbound cells left out;
//   - the reference evaluator and, wherever it accepts the query, the
//     relational baseline return Query's row multiset;
//   - Ask reports whether Query returned a row;
//   - Query's rendered output is byte-identical to the one at workers=1.
func TestRouteAgreement(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(routeTestTriples())
	sequential := map[string]string{}
	baselineChecked := 0
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newRouteTestStore(t, workers)
			for _, p := range routeProbes {
				res, err := s.Query(p.q)
				if err != nil {
					t.Fatalf("probe %s: %v", p.id, err)
				}
				if want, ok := sequential[p.id]; !ok {
					sequential[p.id] = res.String()
				} else if res.String() != want {
					t.Errorf("probe %s: rows differ from workers=1\n got %s\nwant %s", p.id, res.String(), want)
				}

				nulls := 0
				for _, row := range res.Rows() {
					if slices.ContainsFunc(row, Term.IsZero) {
						nulls++
					}
				}
				if p.bestMatch && !res.Stats.BestMatch {
					t.Errorf("probe %s: ran without best-match", p.id)
				}
				if res.Stats.Results != res.Len() || res.Stats.NullResults != nulls {
					t.Errorf("probe %s: Stats count %d rows, %d with a NULL; Query returned %d, %d with a NULL",
						p.id, res.Stats.Results, res.Stats.NullResults, res.Len(), nulls)
				}

				checkStreamRowsRoute(t, s, p.id, p.q, res)

				checkIterateView(t, p.id, res)
				want := sortedQueryRows(t, s, p.q)

				if found, err := s.Ask(p.q); err != nil {
					t.Fatalf("probe %s: Ask: %v", p.id, err)
				} else if found != (res.Len() > 0) {
					t.Errorf("probe %s: Ask = %v, Query returned %d rows", p.id, found, res.Len())
				}

				if p.sliced {
					continue
				}
				if _, got, _ := difftest.RefSrc(t, g, p.q); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("probe %s: reference multiset differs\n ref %v\nwant %v", p.id, got, want)
				}
				bres, err := s.QueryBaseline(p.q, VirtuosoLike)
				if err != nil {
					continue // outside the baseline's supported surface
				}
				baselineChecked++
				if got := difftest.Keys(bres.Vars, bres.Rows(), difftest.ByName(res.Vars)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("probe %s: baseline multiset differs\n got %v\nwant %v", p.id, got, want)
				}
			}
		})
	}
	if baselineChecked == 0 {
		t.Error("the baseline accepted no probe; its route was never compared")
	}
}

// checkIterateView asserts that Result.Iterate visits res.Rows() in
// order and that each map holds exactly the row's bound cells.
func checkIterateView(t *testing.T, id string, res *Result) {
	t.Helper()
	rows := res.Rows()
	i := 0
	res.Iterate(func(m map[string]Term) bool {
		if i >= len(rows) {
			t.Errorf("probe %s: Iterate visits more than the %d rows", id, len(rows))
			return false
		}
		bound := 0
		for c, v := range res.Vars {
			got, ok := m[v]
			cell := rows[i][c]
			if cell.IsZero() {
				if ok {
					t.Errorf("probe %s: row %d: Iterate binds unbound ?%s to %v", id, i, v, got)
				}
				continue
			}
			bound++
			if got != cell {
				t.Errorf("probe %s: row %d: Iterate ?%s = %v, Rows has %v", id, i, v, got, cell)
			}
		}
		if len(m) != bound {
			t.Errorf("probe %s: row %d: Iterate map has %d entries, the row %d bound cells", id, i, len(m), bound)
		}
		i++
		return true
	})
	if i != len(rows) {
		t.Errorf("probe %s: Iterate visited %d rows, Rows has %d", id, i, len(rows))
	}
}

// checkStreamRowsRoute asserts QueryStreamRowsObserved replays res
// exactly: one header call carrying res.Vars, then res's rows cell for
// cell, in order. Its Stats must equal res.Stats in every non-duration
// field.
func checkStreamRowsRoute(t *testing.T, s *Store, id, q string, res *Result) {
	t.Helper()
	headers := 0
	var rows [][]Term
	var st Stats
	err := s.QueryStreamRowsObserved(context.Background(), q, &st, nil, func(vars []string, row []Term) bool {
		if row == nil {
			headers++
			if fmt.Sprint(vars) != fmt.Sprint(res.Vars) {
				t.Errorf("probe %s: streamed header %v, Query vars %v", id, vars, res.Vars)
			}
			return true
		}
		rows = append(rows, append([]Term(nil), row...))
		return true
	})
	if err != nil {
		t.Fatalf("probe %s: QueryStreamRowsObserved: %v", id, err)
	}
	if headers != 1 {
		t.Errorf("probe %s: %d header calls, want 1", id, headers)
	}
	if len(rows) != res.Len() {
		t.Fatalf("probe %s: streamed %d rows, Query returned %d", id, len(rows), res.Len())
	}
	if got, want := countStats(st), countStats(res.Stats); got != want {
		t.Errorf("probe %s: streamed Stats %+v, Query Stats %+v", id, got, want)
	}
	for i, row := range rows {
		want := res.Row(i)
		if len(row) != len(want) {
			t.Fatalf("probe %s row %d: streamed width %d, Query width %d", id, i, len(row), len(want))
		}
		for k := range row {
			if row[k] != want[k] {
				t.Fatalf("probe %s row %d col %d: streamed %s, Query %s", id, i, k, row[k], want[k])
			}
		}
	}
}
