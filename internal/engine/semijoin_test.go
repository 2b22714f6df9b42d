package engine

import (
	"context"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/planner"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func bitvecAll(n int) *bitvec.Bits { return bitvec.NewBitsSet(n) }

// setupTPs builds an engine and loads the patterns of a query, returning
// the plan and pattern states without running prune or join. Active
// pruning (including load-time masking) is disabled so the tests exercise
// the semi-join primitives against raw pattern matrices.
func setupTPs(t *testing.T, g *rdf.Graph, src string) (*Engine, *planner.Plan, []*tpState) {
	t.Helper()
	idx, err := bitmat.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	e := New(idx, Options{DisableActivePruning: true})
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := algebra.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	gosn, err := algebra.BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	goj, err := algebra.BuildGoJ(gosn.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	plan := planner.BuildPlan(gosn, goj, EstimateCounts(idx, gosn.Patterns))
	tps := make([]*tpState, len(gosn.Patterns))
	for i, pat := range gosn.Patterns {
		st, err := e.load(pat, i, gosn.SNOfTP[i], plan, tps, nil)
		if err != nil {
			t.Fatal(err)
		}
		tps[i] = st
	}
	return e, plan, tps
}

func TestSemiJoinMixedSOSpaces(t *testing.T) {
	// ?x appears as OBJECT in tp1 and SUBJECT in tp2. Subjects and objects
	// share one ID space, so the semi-join intersects the two folds bit for
	// bit, and zz, never an object, drops out.
	g := rdf.NewGraph()
	g.Add(rdf.T("a", "p", "x1")) // x1 is an object here
	g.Add(rdf.T("a", "p", "x2"))
	g.Add(rdf.T("a", "p", "x3"))
	g.Add(rdf.T("x1", "q", "y1")) // and x1, x2 are subjects here
	g.Add(rdf.T("x2", "q", "y2"))
	g.Add(rdf.T("zz", "q", "y3")) // zz never occurs as an object
	e, _, tps := setupTPs(t, g, `
		SELECT * WHERE { ?a <p> ?x . OPTIONAL { ?x <q> ?y . } }`)
	tp1, tp2 := tps[0], tps[1]
	if tp1.count() != 3 || tp2.count() != 3 {
		t.Fatalf("initial counts %d/%d", tp1.count(), tp2.count())
	}
	// Slave semi-join: tp2 keeps only x bindings present in tp1.
	e.semiJoin("x", tp2, tp1)
	if tp2.count() != 2 {
		t.Fatalf("after semi-join tp2 has %d triples, want 2 (zz dropped)", tp2.count())
	}
	// The master is untouched by a master->slave semi-join.
	if tp1.count() != 3 {
		t.Errorf("master modified: %d", tp1.count())
	}
}

func TestClusteredSemiJoinPeers(t *testing.T) {
	// Example-1: clustered-semi-join over ?sitcom between tp2 and tp3
	// removes the non-NYC sitcoms from tp2 AND the ripple removes nothing
	// from tp3 (it is already restricted).
	g := figure32Graph()
	e, _, tps := setupTPs(t, g, q2)
	tp2, tp3 := tps[1], tps[2]
	if tp2.count() != 5 || tp3.count() != 1 {
		t.Fatalf("initial counts %d/%d", tp2.count(), tp3.count())
	}
	e.clusteredSemiJoin("sitcom", []*tpState{tp2, tp3})
	if tp2.count() != 1 {
		t.Errorf("tp2 after clustered-semi-join = %d, want 1 (only Seinfeld)", tp2.count())
	}
	if tp3.count() != 1 {
		t.Errorf("tp3 after clustered-semi-join = %d, want 1", tp3.count())
	}
}

func TestPruneTriplesExample1(t *testing.T) {
	// The full Example-1 flow: semi-join on ?friend then clustered on
	// ?sitcom leaves tp2 with exactly (Julia actedIn Seinfeld).
	g := figure32Graph()
	e, plan, tps := setupTPs(t, g, q2)
	e.pruneTriples(context.Background(), plan, tps, nil)
	if tps[0].count() != 2 {
		t.Errorf("tp1 = %d, want 2", tps[0].count())
	}
	if tps[1].count() != 1 {
		t.Errorf("tp2 = %d, want 1", tps[1].count())
	}
	if tps[2].count() != 1 {
		t.Errorf("tp3 = %d, want 1", tps[2].count())
	}
	// Verify it is the right triple: Julia x Seinfeld.
	dict := e.dict
	julia := dict.SOID(rdf.NewIRI("Julia"))
	seinfeld := dict.SOID(rdf.NewIRI("Seinfeld"))
	found := false
	tps[1].mat.ForEach(func(r, c int) bool {
		rowIsJulia := tps[1].rowVar == "friend" && r == int(julia-1)
		colIsJulia := tps[1].colVar == "friend" && c == int(julia-1)
		rowIsSein := tps[1].rowVar == "sitcom" && r == int(seinfeld-1)
		colIsSein := tps[1].colVar == "sitcom" && c == int(seinfeld-1)
		if (rowIsJulia || colIsJulia) && (rowIsSein || colIsSein) {
			found = true
		}
		return true
	})
	if !found {
		t.Error("tp2's surviving triple is not (Julia actedIn Seinfeld)")
	}
}

func TestEstimateCounts(t *testing.T) {
	g := figure32Graph()
	idx, err := bitmat.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	pats := []sparql.TriplePattern{
		// (?a :actedIn ?b) -> 5
		{S: sparql.V("a"), P: sparql.IRINode("actedIn"), O: sparql.V("b")},
		// (Julia :actedIn ?b) -> 4
		{S: sparql.IRINode("Julia"), P: sparql.IRINode("actedIn"), O: sparql.V("b")},
		// (?a :actedIn CurbYourEnthu) -> 2
		{S: sparql.V("a"), P: sparql.IRINode("actedIn"), O: sparql.IRINode("CurbYourEnthu")},
		// (Jerry ?p ?o) -> 2
		{S: sparql.IRINode("Jerry"), P: sparql.V("p"), O: sparql.V("o")},
		// (?s ?p Julia) -> 1
		{S: sparql.V("s"), P: sparql.V("p"), O: sparql.IRINode("Julia")},
		// (Julia :actedIn Veep) -> 1
		{S: sparql.IRINode("Julia"), P: sparql.IRINode("actedIn"), O: sparql.IRINode("Veep")},
		// (Julia ?p Veep) -> 1
		{S: sparql.IRINode("Julia"), P: sparql.V("p"), O: sparql.IRINode("Veep")},
		// unknown term -> 0
		{S: sparql.IRINode("NoSuch"), P: sparql.IRINode("actedIn"), O: sparql.V("b")},
	}
	got := EstimateCounts(idx, pats)
	want := []int64{5, 4, 2, 2, 1, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("count[%d] (%s) = %d, want %d", i, pats[i], got[i], want[i])
		}
	}
}

func TestActivePruneMasksNewPattern(t *testing.T) {
	g := figure32Graph()
	e, plan, _ := setupTPs(t, g, q2)
	gosn := plan.GoSN
	tps := make([]*tpState, len(gosn.Patterns))
	load := func(i int) {
		st, err := e.load(gosn.Patterns[i], i, gosn.SNOfTP[i], plan, tps, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.activePrune(st, tps, plan)
		tps[i] = st
	}
	// After loading tp1 then tp2, tp2 keeps only Julia's and Larry's
	// actedIn triples (the ?friend bindings of tp1).
	load(0)
	load(1)
	if tps[1].count() != 5 {
		t.Errorf("tp2 after master masking = %d, want 5", tps[1].count())
	}
	// Loading tp3 prunes its peer tp2 bidirectionally: only the NewYorkCity
	// sitcom survives (the Section 5 example prunes exactly this way).
	load(2)
	if tps[1].count() != 1 {
		t.Errorf("tp2 after peer masking = %d, want 1", tps[1].count())
	}
	if tps[2].count() != 1 {
		t.Errorf("tp3 = %d, want 1", tps[2].count())
	}
}

func TestLoadOrientationFollowsPlan(t *testing.T) {
	// Example-2 / Section 5: for (?friend :actedIn ?sitcom), ?friend comes
	// before ?sitcom in orderbu, so the S-O BitMat loads (rows = friend).
	g := figure32Graph()
	_, _, tps := setupTPs(t, g, q2)
	tp2 := tps[1]
	if tp2.rowVar != "friend" || tp2.rowSpace != SpaceSO {
		t.Errorf("tp2 orientation: rowVar=%s rowSpace=%v, want friend/SO", tp2.rowVar, tp2.rowSpace)
	}
	if tp2.colVar != "sitcom" || tp2.colSpace != SpaceSO {
		t.Errorf("tp2 colVar=%s colSpace=%v", tp2.colVar, tp2.colSpace)
	}
}

func TestMaskForSpace(t *testing.T) {
	mask := bitvecAll(10)
	// Subjects and objects share one space: the mask passes through
	// untouched whichever position the variable holds.
	if maskForSpace(mask, SpaceSO, SpaceSO) != mask {
		t.Error("same-space mask must pass through")
	}
	// P against S/O is impossible.
	if maskForSpace(mask, SpaceP, SpaceSO).Len() != 0 || maskForSpace(mask, SpaceSO, SpaceP).Len() != 0 {
		t.Error("P/SO pairing must give an empty mask")
	}
}
