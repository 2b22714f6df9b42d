package lbr

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/ref"
)

// updateStore builds and indexes a small movie graph for the update tests.
func updateStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.AddAll([]Triple{
		TripleIRI("julia", "acted_in", "seinfeld"),
		TripleIRI("jerry", "acted_in", "seinfeld"),
		TripleIRI("julia", "knows", "jerry"),
		TripleIRI("seinfeld", "genre", "comedy"),
	})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSecondRoleJoinAfterBuild joins through a term that an
// uncompacted insert gave its second role: <b> is only an object in the
// built base, and the delta makes it a subject. The engine and the
// baseline, under both policies, must find the one S-O join row.
func TestSecondRoleJoinAfterBuild(t *testing.T) {
	s := NewStore()
	if _, err := s.ApplyUpdate(`INSERT DATA { <a> <p> <b> . <c> <q> <d> }`); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`INSERT DATA { <b> <r> <e> }`); err != nil {
		t.Fatal(err)
	}
	if s.DeltaSize() != 1 {
		t.Fatalf("delta size %d, want the insert left uncompacted", s.DeltaSize())
	}
	const q = `SELECT * WHERE { ?x <p> ?y . ?y <r> ?z }`
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("Query: %d rows, want 1", res.Len())
	}
	for _, pol := range []BaselinePolicy{MonetDBLike, VirtuosoLike} {
		res, err := s.QueryBaseline(q, pol)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Errorf("QueryBaseline(%d): %d rows, want 1", pol, res.Len())
		}
	}
}

func TestApplyUpdateInsertData(t *testing.T) {
	s := updateStore(t)
	gen := s.Generation()
	res, err := s.ApplyUpdate(`INSERT DATA { <larry> <acted_in> <seinfeld> . <julia> <knows> <jerry> }`)
	if err != nil {
		t.Fatal(err)
	}
	// The second triple already exists: only one effective insert.
	if res.Ops != 1 || res.Inserted != 1 || res.Deleted != 0 {
		t.Fatalf("got %+v", res)
	}
	if res.Generation <= gen {
		t.Errorf("generation must advance: %d -> %d", gen, res.Generation)
	}
	ok, err := s.Ask(`ASK { <larry> <acted_in> <seinfeld> }`)
	if err != nil || !ok {
		t.Fatalf("inserted triple not visible: ok=%v err=%v", ok, err)
	}
}

func TestApplyUpdateDeleteData(t *testing.T) {
	s := updateStore(t)
	res, err := s.ApplyUpdate(`DELETE DATA { <julia> <knows> <jerry> . <nobody> <knows> <anybody> }`)
	if err != nil {
		t.Fatal(err)
	}
	// The second triple is absent: one effective delete.
	if res.Inserted != 0 || res.Deleted != 1 {
		t.Fatalf("got %+v", res)
	}
	ok, err := s.Ask(`ASK { <julia> <knows> <jerry> }`)
	if err != nil || ok {
		t.Fatalf("deleted triple still visible: ok=%v err=%v", ok, err)
	}
}

func TestApplyUpdateModifySwap(t *testing.T) {
	// The classic pre-operation-semantics probe: swapping the direction of
	// every edge must not double-apply to rows produced by its own inserts.
	s := NewStore()
	s.AddAll([]Triple{
		TripleIRI("a", "p", "b"),
		TripleIRI("b", "p", "c"),
	})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyUpdate(`DELETE { ?s <p> ?o } INSERT { ?o <p> ?s } WHERE { ?s <p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 2 {
		t.Fatalf("got %+v", res)
	}
	r, err := s.Query(`SELECT * WHERE { ?s <p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	r.Iterate(func(row map[string]Term) bool {
		got[row["s"].Value+"->"+row["o"].Value] = true
		return true
	})
	want := map[string]bool{"b->a": true, "c->b": true}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing %s in %v", k, got)
		}
	}
}

func TestApplyUpdateChainedOpsSeePriorEffects(t *testing.T) {
	s := updateStore(t)
	res, err := s.ApplyUpdate(`
		INSERT DATA { <elaine> <acted_in> <seinfeld> } ;
		INSERT { ?a <colleague_of> ?b } WHERE { ?a <acted_in> ?m . ?b <acted_in> ?m }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2 {
		t.Fatalf("got %+v", res)
	}
	// The second op's WHERE must see elaine from the first op.
	ok, err := s.Ask(`ASK { <elaine> <colleague_of> <jerry> }`)
	if err != nil || !ok {
		t.Fatalf("second op did not see first op's insert: ok=%v err=%v", ok, err)
	}
}

func TestApplyUpdateDeleteWhereShorthand(t *testing.T) {
	s := updateStore(t)
	res, err := s.ApplyUpdate(`DELETE WHERE { ?a <acted_in> ?m }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 {
		t.Fatalf("got %+v", res)
	}
	ok, err := s.Ask(`ASK { ?a <acted_in> ?m }`)
	if err != nil || ok {
		t.Fatalf("acted_in edges survived: ok=%v err=%v", ok, err)
	}
	// Unrelated triples stay.
	ok, err = s.Ask(`ASK { <seinfeld> <genre> <comedy> }`)
	if err != nil || !ok {
		t.Fatalf("unrelated triple lost: ok=%v err=%v", ok, err)
	}
}

func TestApplyUpdateOptionalUnboundSkipsTemplate(t *testing.T) {
	s := updateStore(t)
	// ?n is unbound for actors without a knows edge; those template
	// instantiations are skipped, not error.
	res, err := s.ApplyUpdate(`
		INSERT { ?a <likes> ?n } WHERE { ?a <acted_in> <seinfeld> . OPTIONAL { ?a <knows> ?n } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 {
		t.Fatalf("got %+v", res)
	}
	ok, err := s.Ask(`ASK { <julia> <likes> <jerry> }`)
	if err != nil || !ok {
		t.Fatalf("bound instantiation missing: ok=%v err=%v", ok, err)
	}
}

func TestApplyUpdateParseErrorLeavesStoreUntouched(t *testing.T) {
	s := updateStore(t)
	before := s.Len()
	gen := s.Generation()
	if _, err := s.ApplyUpdate(`INSERT DATA { ?v <p> <o> }`); err == nil {
		t.Fatal("want parse error")
	}
	if s.Len() != before || s.Generation() != gen {
		t.Fatal("failed update mutated the store")
	}
}

// sortedQueryRows runs q on s and returns its rows as the kit's sorted
// multiset keys over the result's variables ordered by name, the column
// order of difftest.RefSrc's keys.
func sortedQueryRows(t *testing.T, s *Store, q string) []string {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return difftest.Keys(res.Vars, res.Rows(), difftest.ByName(res.Vars))
}

// TestUpdateDifferentialOracle replays one random update stream into native
// stores (Workers 1 and 3) and the naive reference graph, diffing probe
// query results at every step, across Compact checkpoints, and against a
// cold rebuild of the final state. This is the ISSUE's acceptance oracle.
func TestUpdateDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ent := func() string { return fmt.Sprintf("e%d", rng.Intn(12)) }
	pred := func() string { return fmt.Sprintf("p%d", rng.Intn(3)) }

	var base []Triple
	g := rdf.NewGraph()
	for i := 0; i < 30; i++ {
		tr := TripleIRI(ent(), pred(), ent())
		if g.Add(tr) {
			base = append(base, tr)
		}
	}
	s1 := NewStoreWithOptions(Options{Workers: 1})
	s3 := NewStoreWithOptions(Options{Workers: 3})
	s1.AddAll(base)
	s3.AddAll(base)
	if err := s1.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s3.Build(); err != nil {
		t.Fatal(err)
	}

	probes := []string{
		`SELECT * WHERE { ?s <p0> ?o }`,
		`SELECT * WHERE { ?s <p1> ?o . ?o <p0> ?x }`,
		`SELECT * WHERE { ?s ?p ?o }`,
	}
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			_, want, _ := difftest.RefSrc(t, g, q)
			for name, s := range map[string]*Store{"w1": s1, "w3": s3} {
				got := sortedQueryRows(t, s, q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s %s:\n got %v\nwant %v", step, name, q, got, want)
				}
			}
		}
		// Byte-identity across Workers counts on the same logical snapshot:
		// identical update streams extend the dictionary identically.
		for _, q := range probes {
			r1, err := s1.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			r3, err := s3.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if r1.String() != r3.String() {
				t.Fatalf("%s %s: Workers=1 and Workers=3 render differently:\n%s\nvs\n%s",
					step, q, r1.String(), r3.String())
			}
		}
	}

	check("pre")
	for step := 0; step < 12; step++ {
		var u string
		switch rng.Intn(4) {
		case 0:
			u = fmt.Sprintf(`INSERT DATA { <%s> <%s> <%s> }`, ent(), pred(), ent())
		case 1:
			ts := g.Triples()
			if len(ts) == 0 {
				continue
			}
			tr := ts[rng.Intn(len(ts))]
			u = fmt.Sprintf(`DELETE DATA { %s <%s> %s }`, tr.S, tr.P.Value, tr.O)
		case 2:
			u = fmt.Sprintf(`DELETE { ?s <%s> ?o } INSERT { ?o <%s> ?s } WHERE { ?s <%s> ?o . ?o <p0> ?x }`,
				pred(), pred(), pred())
		case 3:
			u = fmt.Sprintf(`DELETE WHERE { <%s> <%s> ?o }`, ent(), pred())
		}
		ri, rd, err := ref.ApplyUpdate(g, u)
		if err != nil {
			t.Fatalf("reference rejected %q: %v", u, err)
		}
		for name, s := range map[string]*Store{"w1": s1, "w3": s3} {
			res, err := s.ApplyUpdate(u)
			if err != nil {
				t.Fatalf("%s rejected %q: %v", name, u, err)
			}
			if res.Inserted != ri || res.Deleted != rd {
				t.Fatalf("%s %q: native +%d/-%d, reference +%d/-%d", name, u, res.Inserted, res.Deleted, ri, rd)
			}
		}
		check(fmt.Sprintf("step %d (%s)", step, u))
		if step == 5 {
			// Mid-stream compaction: fold the delta and re-diff.
			if err := s1.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s3.Compact(); err != nil {
				t.Fatal(err)
			}
			check("post-compact@5")
		}
	}

	// Final: compact both, compare against a cold store built from the
	// reference graph. Post-compaction the dictionaries are rebuilt from
	// the same triple set, so String() must be byte-identical too.
	if err := s1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s3.Compact(); err != nil {
		t.Fatal(err)
	}
	if s1.DeltaSize() != 0 || s3.DeltaSize() != 0 {
		t.Fatalf("delta after Compact: w1=%d w3=%d", s1.DeltaSize(), s3.DeltaSize())
	}
	cold := NewStore()
	cold.LoadGraph(g)
	if err := cold.Build(); err != nil {
		t.Fatal(err)
	}
	check("final")
	for _, q := range probes {
		rc, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rc.String() != r1.String() {
			t.Fatalf("compacted store differs from cold rebuild on %s:\n%s\nvs\n%s", q, r1.String(), rc.String())
		}
	}
}

// TestUpdateMVCCSnapshotIsolation pins the MVCC contract: a streaming query
// that started before an update (and a compaction) completes with its
// original view, while queries started after see the new state.
func TestUpdateMVCCSnapshotIsolation(t *testing.T) {
	s := updateStore(t)
	entered := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan error, 1)
	var rows int
	go func() {
		first := true
		done <- s.QueryStreamRowsObserved(context.Background(), `SELECT * WHERE { ?a <acted_in> <seinfeld> }`, nil, nil,
			func(vars []string, row []Term) bool {
				if row == nil {
					return true // header call
				}
				if first {
					first = false
					close(entered)
					<-proceed
				}
				rows++
				return true
			})
	}()
	<-entered
	// Mutate and compact while the reader is parked mid-stream.
	if _, err := s.ApplyUpdate(`INSERT DATA { <larry> <acted_in> <seinfeld> }`); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("pre-update snapshot saw %d rows, want 2 (julia, jerry)", rows)
	}
	// A fresh query sees the post-update state.
	res, err := s.Query(`SELECT * WHERE { ?a <acted_in> <seinfeld> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("post-update query saw %d rows, want 3", res.Len())
	}
}

// TestUpdateConcurrentWritersAndCompaction races writers against the
// background compactor. Len and WriteNTriples track the mirror throughout,
// and the end state carries no dead delta entries: after a final Compact
// the delta is empty, the views (Stats included) match the mirror, and the
// store equals a cold rebuild. Run under -race this also pins the locking
// discipline.
func TestUpdateConcurrentWritersAndCompaction(t *testing.T) {
	s := NewStoreWithOptions(Options{Workers: 2})
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		tr := TripleIRI(fmt.Sprintf("e%d", i%7), fmt.Sprintf("p%d", i%3), fmt.Sprintf("e%d", (i+3)%7))
		if g.Add(tr) {
			s.Add(tr)
		}
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // guards g, the expected-state mirror
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				tr := TripleIRI(fmt.Sprintf("x%d_%d", w, rng.Intn(8)), "p0", fmt.Sprintf("e%d", rng.Intn(7)))
				mu.Lock()
				if rng.Intn(3) == 0 && g.Contains(tr) {
					g.Remove(tr)
					s.Remove(tr)
				} else {
					g.Add(tr)
					s.Add(tr)
				}
				mu.Unlock()
			}
		}(w)
	}
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	// While writers and compactions race, Len and WriteNTriples must match
	// the mirror whenever the mirror's lock pins the two together.
	for racing := true; racing; {
		select {
		case <-writersDone:
			racing = false
		default:
		}
		func() {
			mu.Lock()
			defer mu.Unlock()
			compareViews(t, s, g, "mid-race", false)
		}()
	}
	<-compDone
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if ds := s.DeltaSize(); ds != 0 {
		t.Fatalf("dead delta entries after quiescent Compact: %d", ds)
	}
	compareViews(t, s, g, "quiescent", true)
	cold := NewStore()
	cold.LoadGraph(g)
	if err := cold.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`SELECT * WHERE { ?s <p0> ?o }`, `SELECT * WHERE { ?s ?p ?o }`} {
		got := sortedQueryRows(t, s, q)
		want := sortedQueryRows(t, cold, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: racing store diverged from cold rebuild:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestAutoCompactThreshold checks the CompactThreshold option folds the
// delta once enough entries accumulate.
func TestAutoCompactThreshold(t *testing.T) {
	s := NewStoreWithOptions(Options{CompactThreshold: 3})
	s.AddAll([]Triple{TripleIRI("a", "p", "b")})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.ApplyUpdate(fmt.Sprintf(`INSERT DATA { <n%d> <p> <b> }`, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Background compactions race the loop; quiesce and verify the
	// threshold kept the delta from growing monotonically.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.DeltaSize() != 0 {
		t.Fatalf("delta not folded: %d", s.DeltaSize())
	}
	if s.Len() != 7 {
		t.Fatalf("want 7 triples, got %d", s.Len())
	}
}

// TestUpdateRebaseDeltaModel checks the compaction rebase against its
// definition over random small states. A compaction folds a snapshot delta
// into a new index (built = base − snapDel + snapIns) while mutations move
// the store on to cur = base − curDel + curIns; the rebased delta must be
// exactly cur − built (ins) and built − cur (del).
func TestUpdateRebaseDeltaModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universe := map[string]Triple{}
	for i := 0; i < 10; i++ {
		tr := TripleIRI(fmt.Sprintf("s%d", i%4), "p", fmt.Sprintf("o%d", i))
		universe[tr.String()] = tr
	}
	subset := func() map[string]Triple {
		m := map[string]Triple{}
		for k, tr := range universe {
			if rng.Intn(2) == 0 {
				m[k] = tr
			}
		}
		return m
	}
	minus := func(a, b map[string]Triple) map[string]Triple {
		m := map[string]Triple{}
		for k, tr := range a {
			if _, ok := b[k]; !ok {
				m[k] = tr
			}
		}
		return m
	}
	for i := 0; i < 2000; i++ {
		base, built, cur := subset(), subset(), subset()
		ins, del := rebaseDelta(minus(built, base), minus(base, built), minus(cur, base), minus(base, cur))
		wantIns, wantDel := minus(cur, built), minus(built, cur)
		if !maps.Equal(ins, wantIns) || !maps.Equal(del, wantDel) {
			t.Fatalf("case %d: rebased ins %v del %v, want ins %v del %v", i, ins, del, wantIns, wantDel)
		}
	}
}
