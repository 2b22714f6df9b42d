package algebra

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sparql"
)

func parseTree(t *testing.T, src string) Tree {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tree, err := FromQuery(q)
	if err != nil {
		t.Fatalf("FromQuery: %v", err)
	}
	return tree
}

const q2src = `
	PREFIX : <http://ex.org/>
	SELECT ?friend ?sitcom WHERE {
		:Jerry :hasFriend ?friend .
		OPTIONAL {
			?friend :actedIn ?sitcom .
			?sitcom :location :NewYorkCity . }}`

func TestFromQueryQ2Serialization(t *testing.T) {
	// Q2 serializes as (P1 OPT P2) with P1 = {tp1} and P2 = {tp2, tp3}
	// (Figure 2.1a).
	tree := parseTree(t, q2src)
	lj, ok := tree.(*LeftJoin)
	if !ok {
		t.Fatalf("tree = %T, want LeftJoin", tree)
	}
	p1, ok := lj.L.(*Leaf)
	if !ok || len(p1.Patterns) != 1 {
		t.Fatalf("P1 = %s", lj.L.Serialize())
	}
	p2, ok := lj.R.(*Leaf)
	if !ok || len(p2.Patterns) != 2 {
		t.Fatalf("P2 = %s", lj.R.Serialize())
	}
}

func TestGoSNFigure21aQ2(t *testing.T) {
	// Figure 2.1a: GoSN of Q2 is SN1 -> SN2.
	tree := parseTree(t, q2src)
	g, err := BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSupernodes() != 2 {
		t.Fatalf("supernodes = %d, want 2", g.NumSupernodes())
	}
	if got := g.String(); got != "SN0->SN1" {
		t.Errorf("GoSN = %s, want SN0->SN1", got)
	}
	if !g.IsMaster(0, 1) || g.IsMaster(1, 0) {
		t.Error("SN0 must be master of SN1 only")
	}
	if !g.IsAbsoluteMaster(0) || g.IsAbsoluteMaster(1) {
		t.Error("absolute masters wrong")
	}
	if len(g.Supernodes[0].TPs) != 1 || len(g.Supernodes[1].TPs) != 2 {
		t.Error("supernode pattern encapsulation wrong")
	}
}

// figure21bTree builds ((Pa OPT Pb) JOIN (Pc OPT Pd)) OPT (Pe OPT Pf) with
// single-pattern BGPs. Variables are chosen so every adjacent pair shares a
// variable (no Cartesian products).
func figure21bTree() Tree {
	leafN := func(s, p, o string) *Leaf {
		mk := func(x string) sparql.Node {
			if strings.HasPrefix(x, "?") {
				return sparql.V(x[1:])
			}
			return sparql.IRINode("http://ex.org/" + x)
		}
		return &Leaf{Patterns: []sparql.TriplePattern{{S: mk(s), P: mk(p), O: mk(o)}}}
	}
	pa := leafN("?x", "pa", "?y")
	pb := leafN("?y", "pb", "?b")
	pc := leafN("?x", "pc", "?c")
	pd := leafN("?c", "pd", "?d")
	pe := leafN("?x", "pe", "?e")
	pf := leafN("?e", "pf", "?f")
	return &LeftJoin{
		L: &Join{L: &LeftJoin{L: pa, R: pb}, R: &LeftJoin{L: pc, R: pd}},
		R: &LeftJoin{L: pe, R: pf},
	}
}

func TestGoSNFigure21b(t *testing.T) {
	// Figure 2.1b: edges SNa->SNb, SNc->SNd, SNe->SNf, SNa->SNe, SNa<->SNc.
	// With left-to-right IDs: a=0, b=1, c=2, d=3, e=4, f=5.
	g, err := BuildGoSN(figure21bTree())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"SN0->SN1":  true,
		"SN2->SN3":  true,
		"SN4->SN5":  true,
		"SN0->SN4":  true,
		"SN0<->SN2": true,
	}
	got := strings.Split(g.String(), ", ")
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for _, e := range got {
		if !want[e] {
			t.Errorf("unexpected edge %s", e)
		}
	}
	// SNa and SNc are the absolute masters (Section 2.2).
	abs := g.AbsoluteMasters()
	if len(abs) != 2 || abs[0] != 0 || abs[1] != 2 {
		t.Errorf("absolute masters = %v, want [0 2]", abs)
	}
	// SNa and SNc are peers.
	if !g.ArePeers(0, 2) || !g.ArePeers(2, 0) {
		t.Error("SNa and SNc must be peers")
	}
	// Master relation is transitive: SNa is master of SNf via SNe.
	if !g.IsMaster(0, 5) {
		t.Error("SNa must be a transitive master of SNf")
	}
	// SNc is a master of SNe too (bidirectional to SNa, then SNa->SNe).
	if !g.IsMaster(2, 4) {
		t.Error("SNc must be a master of SNe through its peer SNa")
	}
	// A slave is never a master of its master.
	if g.IsMaster(5, 0) || g.IsMaster(1, 0) {
		t.Error("slaves must not be masters of their masters")
	}
}

func TestGoSNRejectsUnionFilter(t *testing.T) {
	tree := &UnionT{Alts: []Tree{
		&Leaf{Patterns: []sparql.TriplePattern{{S: sparql.V("a"), P: sparql.IRINode("p"), O: sparql.V("b")}}},
		&Leaf{Patterns: []sparql.TriplePattern{{S: sparql.V("a"), P: sparql.IRINode("q"), O: sparql.V("b")}}},
	}}
	if _, err := BuildGoSN(tree); err == nil {
		t.Error("GoSN over a union must fail; rewrite first")
	}
}

func TestWellDesignedQ2(t *testing.T) {
	tree := parseTree(t, q2src)
	g, _ := BuildGoSN(tree)
	if v := CheckWellDesigned(tree, g); len(v) != 0 {
		t.Errorf("Q2 is well-designed, got violations %v", v)
	}
}

func TestNonWellDesignedDetection(t *testing.T) {
	// Px OPT (Py OPT Pz) where Pz shares ?j with Px but not Py: the classic
	// NWD shape from Appendix B.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?a :p ?j .
			OPTIONAL {
				?a :q ?y .
				OPTIONAL { ?y :r ?j . }
			}
		}`
	tree := parseTree(t, src)
	g, _ := BuildGoSN(tree)
	viols := CheckWellDesigned(tree, g)
	if len(viols) == 0 {
		t.Fatal("expected a well-designedness violation")
	}
	v := viols[0]
	if v.Var != "j" || v.SlaveSN != 2 || v.OutsideSN != 0 {
		t.Errorf("violation = %v, want ?j: SN2 with SN0", v)
	}
}

func TestFigureB1Transformation(t *testing.T) {
	// (Pa OPT Pb) OPT ((Pc OPT Pd) OPT (Pe OPT Pf)) where Pb and Pf violate
	// WD with Pc over ?j1 (and so with each other). Appendix B / Figure B.1:
	// after transformation the edges SNa->SNb, SNa->SNc, SNc->SNe, SNe->SNf
	// become bidirectional; SNc->SNd stays unidirectional.
	leaf := func(pats ...sparql.TriplePattern) *Leaf { return &Leaf{Patterns: pats} }
	tp := func(s, p, o string) sparql.TriplePattern {
		mk := func(x string) sparql.Node {
			if strings.HasPrefix(x, "?") {
				return sparql.V(x[1:])
			}
			return sparql.IRINode("http://ex.org/" + x)
		}
		return sparql.TriplePattern{S: mk(s), P: mk(p), O: mk(o)}
	}
	pa := leaf(tp("?x", "pa", "?a"))
	pb := leaf(tp("?x", "pb", "?j1")) // ?j1 here...
	pc := leaf(tp("?x", "pc", "?j1")) // ...and here...
	pd := leaf(tp("?x", "pd", "?d"))
	pe := leaf(tp("?x", "pe", "?e"))
	pf := leaf(tp("?e", "pf", "?j1")) // ...and here
	tree := &LeftJoin{
		L: &LeftJoin{L: pa, R: pb},
		R: &LeftJoin{L: &LeftJoin{L: pc, R: pd}, R: &LeftJoin{L: pe, R: pf}},
	}
	g, err := BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	// IDs: a=0 b=1 c=2 d=3 e=4 f=5.
	viols := CheckWellDesigned(tree, g)
	if len(viols) == 0 {
		t.Fatal("expected violations")
	}
	TransformNWD(g, viols)
	kinds := map[string]EdgeKind{}
	for _, e := range g.Edges {
		kinds[edgeKey(e.From, e.To)] = e.Kind
	}
	wantBidi := [][2]int{{0, 1}, {0, 2}, {2, 4}, {4, 5}}
	for _, p := range wantBidi {
		if kinds[edgeKey(p[0], p[1])] != Bidirectional {
			t.Errorf("edge SN%d-SN%d should be bidirectional after transformation", p[0], p[1])
		}
	}
	if kinds[edgeKey(2, 3)] != Unidirectional {
		t.Error("edge SNc->SNd must stay unidirectional (Figure B.1)")
	}
	// After the transformation the former slaves b, c, e, f join the
	// absolute-master peer group of a.
	for _, sn := range []int{0, 1, 2, 4, 5} {
		if !g.IsAbsoluteMaster(sn) {
			t.Errorf("SN%d should be an absolute master after transformation", sn)
		}
	}
	if g.IsAbsoluteMaster(3) {
		t.Error("SNd must remain a slave")
	}
}

func edgeKey(a, b int) string {
	if a > b {
		a, b = b, a
	}
	return string(rune('0'+a)) + "-" + string(rune('0'+b))
}

func TestGoJFigure33(t *testing.T) {
	// Figure 3.3: GoJ of Q2 has nodes ?friend and ?sitcom with one edge.
	tree := parseTree(t, q2src)
	g, _ := BuildGoSN(tree)
	goj, err := BuildGoJ(g.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(goj.Vars) != 2 {
		t.Fatalf("jvars = %v, want [friend sitcom]", goj.Vars)
	}
	if goj.Vars[0] != "friend" || goj.Vars[1] != "sitcom" {
		t.Errorf("jvars = %v", goj.Vars)
	}
	if len(goj.Edges) != 1 || goj.Cyclic {
		t.Errorf("edges = %v cyclic = %v", goj.Edges, goj.Cyclic)
	}
	// tp2 (?friend :actedIn ?sitcom) induces the edge.
	if goj.Edges[0].TP != 1 {
		t.Errorf("edge TP = %d, want 1", goj.Edges[0].TP)
	}
	// ?friend occurs in tp1 and tp2; ?sitcom in tp2 and tp3.
	if len(goj.TPsOfVar[0]) != 2 || len(goj.TPsOfVar[1]) != 2 {
		t.Errorf("TPsOfVar = %v", goj.TPsOfVar)
	}
}

func TestGoJCycleDetection(t *testing.T) {
	mk := func(s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.V(s), P: sparql.IRINode("p"), O: sparql.V(o)}
	}
	// Triangle ?a-?b-?c-?a: cyclic.
	tri := []sparql.TriplePattern{mk("a", "b"), mk("b", "c"), mk("c", "a")}
	g, err := BuildGoJ(tri)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Cyclic {
		t.Error("triangle GoJ must be cyclic")
	}
	// Chain ?a-?b-?c: acyclic.
	chain := []sparql.TriplePattern{mk("a", "b"), mk("b", "c"), mk("c", "d")}
	g2, _ := BuildGoJ(chain)
	if g2.Cyclic {
		t.Error("chain GoJ must be acyclic")
	}
	// Two patterns over the same jvar pair: parallel edges = cyclic.
	par := []sparql.TriplePattern{
		mk("a", "b"),
		{S: sparql.V("a"), P: sparql.IRINode("q"), O: sparql.V("b")},
	}
	g3, _ := BuildGoJ(par)
	if !g3.Cyclic {
		t.Error("parallel-edge GoJ must be cyclic")
	}
	// Star over one jvar: acyclic (no 2-jvar patterns at all).
	star := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.IRINode("p1"), O: sparql.IRINode("c1")},
		{S: sparql.V("x"), P: sparql.IRINode("p2"), O: sparql.IRINode("c2")},
		{S: sparql.V("x"), P: sparql.IRINode("p3"), O: sparql.V("y")},
	}
	g4, _ := BuildGoJ(star)
	if g4.Cyclic || len(g4.Edges) != 0 {
		t.Errorf("star GoJ: cyclic=%v edges=%v", g4.Cyclic, g4.Edges)
	}
}

func TestGoJSelfJoinIsCyclic(t *testing.T) {
	pats := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.IRINode("p"), O: sparql.V("x")},
		{S: sparql.V("x"), P: sparql.IRINode("q"), O: sparql.V("y")},
	}
	g, err := BuildGoJ(pats)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Cyclic {
		t.Error("an S-O self join makes the GoJ cyclic")
	}
}

func TestGoJPredicateJoinRejected(t *testing.T) {
	pats := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.V("p"), O: sparql.IRINode("c")},
		{S: sparql.V("y"), P: sparql.V("p"), O: sparql.IRINode("d")},
	}
	if _, err := BuildGoJ(pats); err != ErrPredicateJoin {
		t.Errorf("err = %v, want ErrPredicateJoin", err)
	}
}

func TestGoJNonJoinPredicateVarAllowed(t *testing.T) {
	pats := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.V("p"), O: sparql.IRINode("c")},
		{S: sparql.V("x"), P: sparql.IRINode("q"), O: sparql.V("y")},
	}
	g, err := BuildGoJ(pats)
	if err != nil {
		t.Fatal(err)
	}
	// ?p occurs once: not a join variable.
	if _, ok := g.VarIdx["p"]; ok {
		t.Error("?p must not be a join variable")
	}
}

func TestInducedTreeTraversals(t *testing.T) {
	// Chain a-b-c-d; induced tree on {a,b,c,d} rooted at a.
	mk := func(s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.V(s), P: sparql.IRINode("p"), O: sparql.V(o)}
	}
	pats := []sparql.TriplePattern{
		mk("a", "b"), mk("b", "c"), mk("c", "d"), mk("d", "e"),
		// Anchor patterns so the chain endpoints are join variables too.
		{S: sparql.V("a"), P: sparql.IRINode("q"), O: sparql.IRINode("c1")},
		{S: sparql.V("e"), P: sparql.IRINode("q"), O: sparql.IRINode("c2")},
	}
	g, _ := BuildGoJ(pats)
	all := []int{0, 1, 2, 3, 4}
	tr := g.GetTree(all, g.VarIdx["a"])
	td := tr.TopDown()
	if td[0] != g.VarIdx["a"] {
		t.Errorf("TopDown must start at root, got %v", td)
	}
	bu := tr.BottomUp()
	if bu[len(bu)-1] != g.VarIdx["a"] {
		t.Errorf("BottomUp must end at root, got %v", bu)
	}
	if len(td) != 5 || len(bu) != 5 {
		t.Errorf("traversals must cover all nodes: %v %v", td, bu)
	}
	// Parent appears before child in TopDown.
	posOf := map[int]int{}
	for i, v := range td {
		posOf[v] = i
	}
	for parent, children := range tr.Children {
		for _, c := range children {
			if posOf[parent] > posOf[c] {
				t.Errorf("parent %d after child %d in TopDown", parent, c)
			}
		}
	}
}

func TestNormalizeUNFNoUnion(t *testing.T) {
	tree := parseTree(t, q2src)
	branches, err := NormalizeUNF(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 1 || branches[0].UsedRule3 {
		t.Fatalf("branches = %d", len(branches))
	}
	if len(branches[0].Filters) != 0 {
		t.Error("no filters expected")
	}
}

func TestNormalizeUNFRule1(t *testing.T) {
	// (P1 UNION P2) JOIN P3 -> 2 branches.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			{ ?x :p ?y . } UNION { ?x :q ?y . }
			?y :r ?z .
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	for _, b := range branches {
		if b.UsedRule3 {
			t.Error("rule 3 must not fire for join-side unions")
		}
		if len(Leaves(b.Tree)) != 2 {
			t.Errorf("branch = %s", b.Tree.Serialize())
		}
	}
}

func TestNormalizeUNFRule3Flag(t *testing.T) {
	// P1 OPT (P2 UNION P3) -> 2 branches, both flagged.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			OPTIONAL { { ?y :q ?z . } UNION { ?y :r ?z . } }
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	for _, b := range branches {
		if !b.UsedRule3 {
			t.Error("rule 3 flag must be set")
		}
	}
}

func TestNormalizeUNFNestedUnions(t *testing.T) {
	// Unions on both sides of a join: 2x2 = 4 branches.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			{ ?x :a ?y . } UNION { ?x :b ?y . }
			{ ?y :c ?z . } UNION { ?y :d ?z . }
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 4 {
		t.Fatalf("branches = %d, want 4", len(branches))
	}
}

func TestNormalizeUNFFilterScopes(t *testing.T) {
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			OPTIONAL { ?y :q ?z . FILTER (?z != :bad) }
			FILTER (?x != :worse)
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	b := branches[0]
	if len(b.Filters) != 2 {
		t.Fatalf("filters = %d, want 2", len(b.Filters))
	}
	// Inner filter scopes the optional leaf only (leaf index 1); outer
	// covers both leaves.
	inner, outer := b.Filters[0], b.Filters[1]
	if inner.From != 1 || inner.To != 2 {
		t.Errorf("inner scope = [%d,%d), want [1,2)", inner.From, inner.To)
	}
	if outer.From != 0 || outer.To != 2 {
		t.Errorf("outer scope = [%d,%d), want [0,2)", outer.From, outer.To)
	}
	if err := b.CheckSafeFilters(); err != nil {
		t.Errorf("filters are safe: %v", err)
	}
}

func TestCheckSafeFiltersRejectsUnsafe(t *testing.T) {
	// ?x is bound by the master pattern but is outside the OPTIONAL-scoped
	// filter's subtree: the engine would evaluate the filter over merged
	// rows where ?x is bound, the W3C algebra group-locally where it is
	// not, so the branch must be rejected with the typed error.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			OPTIONAL { ?y :q ?z . FILTER (?x = 1) }
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	err = branches[0].CheckSafeFilters()
	if err == nil {
		t.Fatal("filter over a variable bound outside its scope must be unsafe")
	}
	var uf *UnsafeFilterError
	if !errors.As(err, &uf) {
		t.Fatalf("error %T is not *UnsafeFilterError: %v", err, err)
	}
	if uf.Var != "x" {
		t.Errorf("offending var = %q, want x", uf.Var)
	}
	if !strings.Contains(err.Error(), "unsafe filter") || !strings.Contains(err.Error(), "FILTER(?x ") {
		t.Errorf("error %q should name the condition and the expression", err)
	}
}

func TestCheckSafeFiltersAllowsNowhereVar(t *testing.T) {
	// ?w occurs in no pattern of the branch: nothing can ever bind it, so
	// evaluating the filter with ?w unbound (a type error per row) agrees
	// with the W3C algebra and the branch stays supported.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			OPTIONAL { ?y :q ?z . FILTER (?w = 1 || bound(?z)) }
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if err := branches[0].CheckSafeFilters(); err != nil {
		t.Errorf("never-bound filter variable should be supported: %v", err)
	}
}

func TestSubstituteCheapFilters(t *testing.T) {
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			?y :q ?z .
			FILTER (?z = :Target)
		}`
	branches, err := NormalizeUNF(parseTree(t, src))
	if err != nil {
		t.Fatal(err)
	}
	b := branches[0]
	b.SubstituteCheapFilters()
	if len(b.Filters) != 0 {
		t.Fatalf("filter should be substituted away, still have %d", len(b.Filters))
	}
	pats := TreePatterns(b.Tree)
	if pats[1].O.IsVar {
		t.Errorf("?z not substituted: %s", pats[1])
	}
	if pats[1].O.Term.Value != "http://ex.org/Target" {
		t.Errorf("substituted to %v", pats[1].O.Term)
	}
}

func TestSubstituteVarEqualsVar(t *testing.T) {
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?m :p ?a . ?n :q ?b .
			FILTER (?m = ?n)
		}`
	branches, _ := NormalizeUNF(parseTree(t, src))
	b := branches[0]
	b.SubstituteCheapFilters()
	if len(b.Filters) != 0 {
		t.Fatal("var=var filter should be substituted away")
	}
	pats := TreePatterns(b.Tree)
	if !pats[1].S.IsVar || pats[1].S.Var != "m" {
		t.Errorf("?n must be replaced by ?m: %s", pats[1])
	}
}

func TestLeavesOrder(t *testing.T) {
	tree := figure21bTree()
	leaves := Leaves(tree)
	if len(leaves) != 6 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	// Left-to-right: pa pb pc pd pe pf, identified by predicate IRI.
	want := []string{"pa", "pb", "pc", "pd", "pe", "pf"}
	for i, l := range leaves {
		p := l.Patterns[0].P.Term.Value
		if !strings.HasSuffix(p, want[i]) {
			t.Errorf("leaf %d predicate %s, want suffix %s", i, p, want[i])
		}
	}
}

func TestFromQueryFilterAtGroupScope(t *testing.T) {
	// Filters scope over the whole group even when written mid-group.
	src := `
		PREFIX : <http://ex.org/>
		SELECT * WHERE {
			?x :p ?y .
			FILTER (?z = 1)
			?y :q ?z .
		}`
	tree := parseTree(t, src)
	f, ok := tree.(*FilterT)
	if !ok {
		t.Fatalf("tree = %T, want FilterT at top", tree)
	}
	if len(TreePatterns(f.Child)) != 2 {
		t.Error("filter must scope over both patterns")
	}
}
