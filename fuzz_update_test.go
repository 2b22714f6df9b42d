package lbr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/ref"
)

// fuzzUpdateBase is the fixed dataset every fuzzed update stream starts
// from; small enough that probe queries stay cheap, rich enough to carry
// shared S/O terms, an S-only term, and an O-only term.
func fuzzUpdateBase() []Triple {
	return []Triple{
		TripleIRI("e0", "p0", "e1"),
		TripleIRI("e1", "p0", "e2"),
		TripleIRI("e2", "p1", "e0"),
		TripleIRI("e0", "p1", "e3"), // e3: object-only in the base
		TripleIRI("e4", "p0", "e0"), // e4: subject-only in the base
	}
}

var fuzzUpdateProbes = []string{
	`SELECT * WHERE { ?s <p0> ?o }`,                           // single pattern
	`SELECT * WHERE { ?s <p0> ?o . OPTIONAL { ?s <p1> ?x } }`, // star with OPTIONAL slave
	`SELECT * WHERE { ?s <p1> ?o . ?o <p0> ?x }`,              // chain join
	`SELECT * WHERE { ?s ?p ?o }`,                             // three-variable scan
}

// diffUpdateStream applies one update stream (ops separated by '\n') to a
// native store and the naive reference, comparing effective counts, probe
// query results and the derived views (Len, WriteNTriples, Stats) after
// every op, then across a compaction, against a cold rebuild, and across a
// SaveIndex → OpenIndex round trip followed by one more update.
// Unparseable or unsupported streams are skipped, but only when BOTH
// implementations reject them — one-sided rejection is a finding.
//
// Stats folds the delta into a fresh base, so checking it on the main
// store would keep that store's delta from ever spanning more than one
// op. A twin store receives the same ops and folds after each of them
// through its Stats check, while the main store's delta accumulates.
func diffUpdateStream(t *testing.T, stream string) {
	t.Helper()
	newStore := func() *Store {
		s := NewStoreWithOptions(Options{Workers: 2})
		s.AddAll(fuzzUpdateBase())
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, folded := newStore(), newStore()
	g := rdf.NewGraph()
	g.AddAll(fuzzUpdateBase())

	for i, op := range strings.Split(stream, "\n") {
		op = strings.TrimSpace(op)
		if op == "" || len(op) > 512 {
			continue
		}
		ri, rd, refErr := ref.ApplyUpdate(g.Clone(), op)
		res, natErr := s.ApplyUpdate(op)
		if (refErr == nil) != (natErr == nil) {
			// The native engine legitimately refuses some WHERE shapes the
			// reference can evaluate (predicate joins, unsafe filters, size
			// caps); those are not divergences.
			if natErr != nil && engine.Unsupported(natErr) {
				return
			}
			t.Fatalf("op %d %q: reference err=%v, native err=%v", i, op, refErr, natErr)
		}
		if refErr != nil {
			return // both rejected; nothing further to compare
		}
		// Commit the reference mutation for real (the dry run above kept g
		// pristine in case only the native side errored).
		if _, _, err := ref.ApplyUpdate(g, op); err != nil {
			t.Fatal(err)
		}
		if res.Inserted != ri || res.Deleted != rd {
			t.Fatalf("op %d %q: native +%d/-%d, reference +%d/-%d", i, op, res.Inserted, res.Deleted, ri, rd)
		}
		step := fmt.Sprintf("op %d %q", i, op)
		compareProbes(t, s, g, step, false)
		fres, err := folded.ApplyUpdate(op)
		if err != nil || fres.Inserted != ri || fres.Deleted != rd {
			t.Fatalf("%s on the folded twin: +%d/-%d err=%v, reference +%d/-%d", step, fres.Inserted, fres.Deleted, err, ri, rd)
		}
		compareProbes(t, folded, g, step+" (folded twin)", true)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compareProbes(t, s, g, "post-compact", true)
	// Row-for-row identity with a cold rebuild pins determinism across
	// independent builds of the same logical state.
	cold := NewStore()
	cold.LoadGraph(g)
	if err := cold.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range fuzzUpdateProbes {
		rc, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rn.String() != rc.String() {
			t.Fatalf("compacted store differs from cold rebuild on %s:\n%s\nvs\n%s", q, rn.String(), rc.String())
		}
	}

	// The reopened store serves its views straight from the loaded index,
	// then from a delta over it.
	var snap bytes.Buffer
	if err := s.SaveIndex(&snap); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenIndexWithOptions(&snap, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	compareProbes(t, reopened, g, "reopened", false)
	const after = "DELETE WHERE { ?s <p1> ?o } ; INSERT DATA { <rt> <p0> <e0> }"
	ri, rd, err := ref.ApplyUpdate(g, after)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reopened.ApplyUpdate(after)
	if err != nil || res.Inserted != ri || res.Deleted != rd {
		t.Fatalf("update after reopen: +%d/-%d err=%v, reference +%d/-%d", res.Inserted, res.Deleted, err, ri, rd)
	}
	compareProbes(t, reopened, g, "reopened, then updated", true)
}

// compareProbes checks the store against the reference graph: every probe
// query, then the derived views (see compareViews).
func compareProbes(t *testing.T, s *Store, g *rdf.Graph, step string, stats bool) {
	t.Helper()
	for _, q := range fuzzUpdateProbes {
		got := sortedQueryRows(t, s, q)
		_, want, _ := difftest.RefSrc(t, g, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s, probe %s:\n got %v\nwant %v", step, q, got, want)
		}
	}
	compareViews(t, s, g, step, stats)
}

// compareViews checks the store's derived views against the reference
// graph: Len, the set of WriteNTriples lines and, when stats is set, Stats
// (which folds the store's delta into a fresh base).
func compareViews(t *testing.T, s *Store, g *rdf.Graph, step string, stats bool) {
	t.Helper()
	if s.Len() != g.Len() {
		t.Fatalf("%s: Len %d, want %d", step, s.Len(), g.Len())
	}
	var got, want bytes.Buffer
	if err := s.WriteNTriples(&got); err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(&want, g); err != nil {
		t.Fatal(err)
	}
	if a, b := sortedLines(got.String()), sortedLines(want.String()); a != b {
		t.Fatalf("%s: WriteNTriples lines\n%s\nwant\n%s", step, a, b)
	}
	if !stats {
		return
	}
	if st, err := s.Stats(); err != nil || st != g.Stats() {
		t.Fatalf("%s: Stats %+v (err %v), want %+v", step, st, err, g.Stats())
	}
}

// FuzzUpdateDifferential fuzzes whole update streams — newline-separated
// SPARQL 1.1 Update requests — through the native delta-overlay store and
// the naive reference applier (satellite of the writes-as-a-workload PR).
func FuzzUpdateDifferential(f *testing.F) {
	seeds := []string{
		`INSERT DATA { <e9> <p0> <e0> }`,
		"INSERT DATA { <e3> <p0> <e9> }\nDELETE DATA { <e0> <p0> <e1> }",
		// e3 is O-only in the base: this gives it a subject role (ext pair).
		"INSERT DATA { <e3> <p1> <e4> }\nINSERT DATA { <e5> <p0> <e3> }",
		`DELETE WHERE { ?s <p0> ?o }`,
		`DELETE { ?s <p0> ?o } INSERT { ?o <p0> ?s } WHERE { ?s <p0> ?o }`,
		"INSERT { ?o <p2> ?s } WHERE { ?s <p1> ?o }\nDELETE WHERE { ?x <p2> ?y }",
		"INSERT DATA { <e0> <p0> <e1> }",                                 // no-op insert
		"DELETE DATA { <e0> <p0> <e1> }\nINSERT DATA { <e0> <p0> <e1> }", // delete then re-insert
		`PREFIX ex: <urn:x:> INSERT DATA { ex:a ex:p ex:b }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		diffUpdateStream(t, stream)
	})
}

// TestUpdateFuzzRegressions replays update streams the fuzzer (and review)
// singled out as past or likely failure shapes, so they run in every plain
// `go test` invocation.
func TestUpdateFuzzRegressions(t *testing.T) {
	cases := map[string]string{
		// Appended term gains both roles across two ops -> ext pair in the
		// overlay dictionary (the coordinate shape behind the engine's
		// semiJoin mask-space fix).
		"ext pair across ops": "INSERT DATA { <e0> <p0> <n1> }\nINSERT DATA { <n1> <p0> <e0> }",
		// Delete a base triple, then re-insert it: the delta must cancel to
		// nothing rather than hold both entries.
		"delete then reinsert": "DELETE DATA { <e0> <p0> <e1> }\nINSERT DATA { <e0> <p0> <e1> }",
		// Wipe a whole predicate, then repopulate it from another one.
		"predicate wipe": "DELETE WHERE { ?s <p0> ?o }\nINSERT { ?s <p0> ?o } WHERE { ?s <p1> ?o }",
		// Swap edge direction with overlapping delete/insert templates.
		"modify swap": `DELETE { ?s <p0> ?o } INSERT { ?o <p0> ?s } WHERE { ?s <p0> ?o }`,
		// The empty IRI <> as subject and predicate: a stored term that
		// renders like an unbound cell, so both key sides must agree on it.
		"empty IRI": "INSERT DATA { <><> <0> }",
		// <> as subject and object of <p1>: the DELETE WHERE the harness
		// runs after reopening binds both variables to <>, which equals the
		// zero Term and so counts as unbound on both sides; its template
		// instance is skipped, not deleted.
		"empty IRI as subject and object": "INSERT DATA { <> <p1> <> }",
		// A mutation path through the three-variable full-scan expansion.
		"mutate then full scan": "INSERT DATA { <e3> <p2> <e8> }\nDELETE { ?s ?p ?o } INSERT { ?o ?p ?s } WHERE { ?s ?p ?o . ?s <p0> ?x }",
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			diffUpdateStream(t, stream)
		})
	}
}
