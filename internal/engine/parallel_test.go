package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestRunLimitedRunsEverything(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 7, 64} {
		var n atomic.Int64
		fns := make([]func(), 33)
		for i := range fns {
			fns[i] = func() { n.Add(1) }
		}
		runLimited(limit, fns)
		if n.Load() != 33 {
			t.Fatalf("limit %d: ran %d fns, want 33", limit, n.Load())
		}
	}
}

// forceParallel drops the work threshold so the parallel paths engage on
// the small test fixtures.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelMinTriples
	parallelMinTriples = 0
	t.Cleanup(func() { parallelMinTriples = old })
}

// chainGraph is a deterministic ~1200-triple graph with enough distinct
// subjects that the partitioned join actually splits the root pattern.
func chainGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("p%03d", i)
		g.Add(rdf.T(s, "knows", fmt.Sprintf("p%03d", (i*7+3)%300)))
		g.Add(rdf.T(s, "type", "Person"))
		if i%3 == 0 {
			g.Add(rdf.T(s, "mail", "mail"+s))
		}
		if i%5 != 0 {
			g.Add(rdf.T(s, "tel", "tel"+s))
		}
		if i%4 == 0 {
			g.Add(rdf.T("pub"+s, "author", s))
		}
	}
	return g
}

var determinismQueries = []string{
	// Plain BGP join.
	`SELECT * WHERE { ?x <knows> ?y . ?y <knows> ?z . }`,
	// One OPTIONAL (left-outer join).
	`SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?y <mail> ?m . } }`,
	// Nested OPTIONAL exercising cascaded slave supernodes.
	`SELECT * WHERE {
		?x <knows> ?y .
		OPTIONAL { ?x <mail> ?m . OPTIONAL { ?x <tel> ?t . } } }`,
	// Peer OPTIONALs under one master plus a clustered semi-join on ?x.
	`SELECT * WHERE {
		?x <type> <Person> . ?x <knows> ?y .
		OPTIONAL { ?x <mail> ?m . }
		OPTIONAL { ?pub <author> ?x . } }`,
	// Multi-jvar slave: the OPTIONAL shares ?x and ?y with the master,
	// which makes the plan cyclic and forces best-match.
	`SELECT * WHERE {
		?x <knows> ?y .
		OPTIONAL { ?x <mail> ?m . ?y <tel> ?t . } }`,
	// One-variable root pattern (single-row matrix partitioning).
	`SELECT * WHERE { ?x <type> <Person> . OPTIONAL { ?x <mail> ?m . } }`,
}

func TestParallelMatchesSequentialByteForByte(t *testing.T) {
	forceParallel(t)
	g := chainGraph()
	seqEng := engineOver(t, g, Options{Workers: 1})
	for qi, src := range determinismQueries {
		want, err := execString(seqEng, src)
		if err != nil {
			t.Fatalf("q%d sequential: %v", qi, err)
		}
		wantRows := difftest.Exact(want.Terms())
		for _, workers := range []int{2, 3, 8} {
			parEng := engineOver(t, g, Options{Workers: workers})
			got, err := execString(parEng, src)
			if err != nil {
				t.Fatalf("q%d workers=%d: %v", qi, workers, err)
			}
			if len(got.Vars) != len(want.Vars) {
				t.Fatalf("q%d workers=%d: vars %v != %v", qi, workers, got.Vars, want.Vars)
			}
			if v := difftest.Verdict(difftest.Exact(got.Terms()), wantRows); v != "" {
				t.Fatalf("q%d workers=%d: %s", qi, workers, v)
			}
			if got.Stats.BestMatch != want.Stats.BestMatch {
				t.Errorf("q%d workers=%d: BestMatch=%v, sequential=%v", qi, workers, got.Stats.BestMatch, want.Stats.BestMatch)
			}
		}
	}
}

func TestParallelMatchesSequentialFigure32(t *testing.T) {
	forceParallel(t)
	g := figure32Graph()
	for _, workers := range []int{2, 4} {
		e := engineOver(t, g, Options{Workers: workers})
		res, err := execString(e, q2)
		if err != nil {
			t.Fatal(err)
		}
		got := rowsAsStrings(res)
		want := []string{"<Julia>|<Seinfeld>", "<Larry>|NULL"}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("workers=%d: rows = %v, want %v", workers, got, want)
		}
	}
}

func TestParallelAblationsStillAgree(t *testing.T) {
	forceParallel(t)
	// The ablation switches must compose with Workers: same rows either way.
	g := chainGraph()
	src := determinismQueries[2]
	for _, opts := range []Options{
		{DisablePruning: true},
		{DisableActivePruning: true},
		{NaiveJvarOrder: true},
	} {
		seq := opts
		seq.Workers = 1
		par := opts
		par.Workers = 4
		want, err := execString(engineOver(t, g, seq), src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execString(engineOver(t, g, par), src)
		if err != nil {
			t.Fatal(err)
		}
		if v := difftest.Verdict(difftest.Exact(got.Terms()), difftest.Exact(want.Terms())); v != "" {
			t.Fatalf("%+v: %s", opts, v)
		}
	}
}

func TestRootPartitionsCoverScan(t *testing.T) {
	g := chainGraph()
	e := engineOver(t, g, Options{})
	res, err := execString(e, `SELECT * WHERE { ?x <knows> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("expected 300 knows rows, got %d", len(res.Rows))
	}
}

// unionDeterminismQuery mixes genuine UNION branches, OPTIONAL NULLs, and
// a shared subpattern (?x <knows> ?y appears in two branches).
const unionDeterminismQuery = `SELECT * WHERE {
	{ ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }
	UNION { ?x <type> <Person> . OPTIONAL { ?x <tel> ?t . } }
	UNION { ?pub <author> ?x . ?x <knows> ?y . } }`

// TestUnionDeterminismAcrossPartitionAndWorkerCounts pins the merge
// determinism of the branch loop and the adaptive partitioner: the
// same UNION query, executed at every worker count, must produce
// byte-identical Result rows — order and OPTIONAL unbound (NULL) cells
// included — and at every partition factor the partitioner's ranges must
// tile the root pattern's rows in scan order, which is what lets the
// partitions' results concatenate to the sequential output.
func TestUnionDeterminismAcrossPartitionAndWorkerCounts(t *testing.T) {
	forceParallel(t)
	g := chainGraph()
	want, err := execString(engineOver(t, g, Options{Workers: 1}), unionDeterminismQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := difftest.Exact(want.Terms())
	nulls := 0
	for _, r := range want.Rows {
		if r.NullCount() > 0 {
			nulls++
		}
	}
	if len(wantRows) == 0 || nulls == 0 {
		t.Fatalf("weak fixture: %d rows, %d with NULLs", len(wantRows), nulls)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := execString(engineOver(t, g, Options{Workers: workers}), unionDeterminismQuery)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if v := difftest.Verdict(difftest.Exact(got.Terms()), wantRows); v != "" {
			t.Fatalf("workers=%d: %s", workers, v)
		}
	}

	e := engineOver(t, g, Options{})
	q, err := sparql.Parse(`SELECT * WHERE { ?x <knows> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.planBranch(p.execs[0].b)
	if err != nil {
		t.Fatal(err)
	}
	tps := make([]*tpState, len(plan.GoSN.Patterns))
	for i, pat := range plan.GoSN.Patterns {
		if tps[i], err = e.load(pat, i, plan.GoSN.SNOfTP[i], plan, tps, nil); err != nil {
			t.Fatal(err)
		}
	}
	stps := sortTPs(plan, tps)
	for _, factor := range []int{1, 2, 4, 8} {
		root, parts := rootPartitions(plan, stps, 2, factor)
		if root < 0 || len(parts) < 2 || len(parts) > 2*factor {
			t.Fatalf("factor=%d: root %d, %d partitions, want 2..%d", factor, root, len(parts), 2*factor)
		}
		// Every non-empty root row lies in exactly one partition, the
		// partitions follow each other in scan order, and none is empty.
		rows := make([]int, len(parts))
		k := 0
		stps[root].mat.ForEachRow(func(r int, _ *bitvec.Row) bool {
			for k < len(parts) && r >= parts[k][1] {
				k++
			}
			if k == len(parts) || r < parts[k][0] {
				t.Fatalf("factor=%d: row %d outside the partitions %v", factor, r, parts)
			}
			rows[k]++
			return true
		})
		for i, n := range rows {
			if n == 0 || (i > 0 && parts[i][0] < parts[i-1][1]) {
				t.Fatalf("factor=%d: partitions %v do not tile the rows (%v per partition)", factor, parts, rows)
			}
		}
	}
}

// errAfterCtx is a context whose Err() flips to context.Canceled after a
// fixed number of checks — a deterministic stand-in for an HTTP timeout
// firing mid-query.
type errAfterCtx struct {
	context.Context
	budget *atomic.Int64
}

func (c errAfterCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestUnionBranchCancellationMidFlight executes a many-branch UNION (a
// ?s ?p ?o full scan expands per predicate) under a context that cancels
// after a few checks: the branch scheduler must observe it between branch
// dispatches and Execute must surface the error instead of a
// result.
func TestUnionBranchCancellationMidFlight(t *testing.T) {
	g := rdf.NewGraph()
	for p := 0; p < 32; p++ {
		for i := 0; i < 4; i++ {
			g.Add(rdf.T(fmt.Sprintf("s%d", i), fmt.Sprintf("p%02d", p), fmt.Sprintf("o%d", i)))
		}
	}
	q, err := sparql.Parse(`SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{0, 1, 5, 20} {
			e := engineOver(t, g, Options{Workers: workers})
			var b atomic.Int64
			b.Store(budget)
			ctx := errAfterCtx{Context: context.Background(), budget: &b}
			if _, err := e.Execute(ctx, e.Prepare(q), nil); err != context.Canceled {
				t.Fatalf("workers=%d budget=%d: err = %v, want context.Canceled", workers, budget, err)
			}
		}
	}
}
