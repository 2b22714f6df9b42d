package lbr

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// filterSweepTriples is the dataset of the store-level filter sweep:
// per-subject stars whose IRI edges (type/linked) keep most generated
// queries on the scatter-gather path, plus literal-valued edges — <age>
// typed xsd:integer, <name> plain strings including the EBV corners ""
// and "0" and number-shaped text — so every filter shape has rows to
// keep, rows to drop, and rows to fail with a type error.
func filterSweepTriples(rng *rand.Rand) []Triple {
	names := []string{"", "0", "alpha", "beta", "a show", "10", "Gamma"}
	var ts []Triple
	for i := 0; i < 24; i++ {
		s := fmt.Sprintf("s%d", i)
		ts = append(ts, TripleIRI(s, "type", fmt.Sprintf("class%d", i%3)))
		if rng.Intn(3) > 0 {
			ts = append(ts, TripleIRI(s, "linked", fmt.Sprintf("s%d", rng.Intn(24))))
		}
		if rng.Intn(3) > 0 {
			ts = append(ts, Triple{S: rdf.NewIRI(s), P: rdf.NewIRI("age"),
				O: rdf.NewTypedLiteral(strconv.Itoa(rng.Intn(90)),
					"http://www.w3.org/2001/XMLSchema#integer")})
		}
		if rng.Intn(2) == 0 {
			ts = append(ts, TripleLit(s, "name", names[rng.Intn(len(names))]))
		}
	}
	return ts
}

// randFilterSweepQuery generates a filter-bearing query over the sweep
// vocabulary: a subject star with optional literal edges, an OPTIONAL
// clause (sometimes carrying a local FILTER, the FaN path), and a
// group-level FILTER drawn from the supported core — comparisons with
// numeric promotion, arithmetic, regex, bound(), bare-EBV atoms,
// ill-typed mixes, and nowhere-vars. Filters inside OPTIONAL use only
// variables the OPTIONAL itself binds, so every query is safe by
// construction.
func randFilterSweepQuery(rng *rand.Rand) string {
	cmp := func() string { return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)] }
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }

	body := "?s <type> ?c . "
	iri := []string{"?s", "?c"}
	var num, str []string
	if rng.Intn(2) == 0 {
		body += "?s <linked> ?t . "
		iri = append(iri, "?t")
	}
	if rng.Intn(2) == 0 {
		body += "?s <age> ?a . "
		num = append(num, "?a")
	}
	if rng.Intn(2) == 0 {
		body += "?s <name> ?n . "
		str = append(str, "?n")
	}
	switch rng.Intn(5) {
	case 0:
		body += fmt.Sprintf("OPTIONAL { ?s <age> ?oa . FILTER (?oa >= %d) } ", rng.Intn(70))
		num = append(num, "?oa")
	case 1:
		body += "OPTIONAL { ?s <name> ?on . FILTER (regex(?on, \"a|0\", \"i\")) } "
		str = append(str, "?on")
	case 2:
		hasT := false
		for _, v := range iri {
			hasT = hasT || v == "?t"
		}
		if !hasT {
			body = "?s <linked> ?t . " + body
			iri = append(iri, "?t")
		}
		body += "OPTIONAL { ?t <age> ?oa . } "
		num = append(num, "?oa")
	}
	atom := func() string {
		var opts []func() string
		if len(num) > 0 {
			opts = append(opts,
				func() string { return fmt.Sprintf("%s %s %d", pick(num), cmp(), rng.Intn(90)) },
				func() string { return fmt.Sprintf("%s + %d %s %d", pick(num), rng.Intn(10), cmp(), rng.Intn(100)) },
				func() string { return fmt.Sprintf("2 * %s %s %s", pick(num), cmp(), pick(num)) },
				func() string { return pick(num) },
			)
			if len(str) > 0 {
				opts = append(opts, func() string { return fmt.Sprintf("%s %s %s", pick(num), cmp(), pick(str)) })
			}
		}
		if len(str) > 0 {
			opts = append(opts,
				func() string {
					return fmt.Sprintf("regex(%s, %q)", pick(str), []string{"^a", "0", "a.*a", "^$"}[rng.Intn(4)])
				},
				func() string { return fmt.Sprintf("%s %s \"beta\"", pick(str), cmp()) },
				func() string { return pick(str) },
			)
		}
		opts = append(opts,
			func() string { return fmt.Sprintf("%s %s <class%d>", pick(iri), cmp(), rng.Intn(3)) },
			func() string { return fmt.Sprintf("bound(%s)", pick(iri)) },
			func() string { return "!bound(?nope)" },
		)
		return opts[rng.Intn(len(opts))]()
	}
	if rng.Intn(4) > 0 {
		e := atom()
		if rng.Intn(2) == 0 {
			op := "&&"
			if rng.Intn(2) == 0 {
				op = "||"
			}
			e = fmt.Sprintf("(%s %s %s)", e, op, atom())
		}
		if rng.Intn(6) == 0 {
			e = fmt.Sprintf("!(%s)", e)
		}
		body += "FILTER (" + e + ") "
	}
	return "SELECT * WHERE { " + body + "}"
}

// storeRowKeys renders a store result as the reference evaluator's sorted
// multiset keys over the reference variable order.
func storeRowKeys(res *Result, vars []sparql.Var) []string {
	pos := map[string]int{}
	for i, v := range res.Vars {
		pos[v] = i
	}
	out := make([]string, 0, res.Len())
	for _, row := range res.Rows() {
		s := ""
		for k, v := range vars {
			if k > 0 {
				s += "|"
			}
			if p, ok := pos[string(v)]; ok && !row[p].IsZero() {
				s += row[p].String()
			} else {
				s += "NULL"
			}
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDifferentialFilterWorkerSweep is the store-level harness of the
// filter evaluator: ~300 generated filter queries executed at Workers ∈
// {1, 2, 4, 8}. Every run must agree with the reference evaluator as a
// sorted multiset, and the rendered result must be byte-identical across
// worker counts — filters may not perturb row order or NULL cells. Runs
// under -race in CI (make test-filter), where the worker fan-out actually
// interleaves.
func TestDifferentialFilterWorkerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	triples := filterSweepTriples(rng)
	g := rdf.NewGraph()
	for _, tr := range triples {
		g.Add(tr)
	}
	workerCounts := []int{1, 2, 4, 8}
	stores := map[int]*Store{}
	for _, w := range workerCounts {
		s := NewStoreWithOptions(Options{Workers: w})
		s.AddAll(triples)
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
		stores[w] = s
	}
	trials := 300
	if testing.Short() {
		trials = 40
	}
	filtered := 0
	for trial := 0; trial < trials; trial++ {
		src := randFilterSweepQuery(rng)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		maps, vars, err := ref.New(g).Execute(q)
		if err != nil {
			t.Fatalf("ref on %q: %v", src, err)
		}
		want := ref.SortedKeys(maps, vars)
		first := ""
		for _, w := range workerCounts {
			res, err := stores[w].Query(src)
			if err != nil {
				t.Fatalf("trial %d workers=%d on %q: %v", trial, w, src, err)
			}
			got := storeRowKeys(res, vars)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d workers=%d mismatch\nquery: %s\nstore: %v\nref:   %v",
					trial, w, src, got, want)
			}
			if exact := res.String(); first == "" {
				first = exact
			} else if exact != first {
				t.Fatalf("trial %d workers=%d: rows diverge from workers=%d\nquery: %s",
					trial, w, workerCounts[0], src)
			}
		}
		if q.Where.String() != "" { // count filter-bearing trials for the floor check
			for _, el := range q.Where.Elements {
				if _, ok := el.(sparql.Filter); ok {
					filtered++
					break
				}
			}
		}
	}
	// The generator must actually exercise filters: at least half the
	// trials carry a group-level FILTER (OPTIONAL-local ones not counted).
	if filtered < trials/2 {
		t.Fatalf("only %d/%d generated queries carried a top-level FILTER", filtered, trials)
	}
}
