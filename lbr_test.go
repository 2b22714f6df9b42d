package lbr

import (
	"bytes"
	"strings"
	"testing"
)

func movieStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for _, tr := range [][3]string{
		{"Julia", "actedIn", "Seinfeld"},
		{"Julia", "actedIn", "Veep"},
		{"Julia", "actedIn", "NewAdvOldChristine"},
		{"Julia", "actedIn", "CurbYourEnthu"},
		{"Larry", "actedIn", "CurbYourEnthu"},
		{"Jerry", "hasFriend", "Julia"},
		{"Jerry", "hasFriend", "Larry"},
		{"Seinfeld", "location", "NewYorkCity"},
		{"Veep", "location", "D.C."},
		{"CurbYourEnthu", "location", "LosAngeles"},
		{"NewAdvOldChristine", "location", "Jersey"},
	} {
		s.Add(TripleIRI(tr[0], tr[1], tr[2]))
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

const movieQ2 = `
	SELECT * WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . } }`

func TestStoreQueryFigure32(t *testing.T) {
	s := movieStore(t)
	res, err := s.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("results = %d, want 2", res.Len())
	}
	seen := map[string]bool{}
	res.Iterate(func(m map[string]Term) bool {
		if sitcom, ok := m["sitcom"]; ok {
			seen[m["friend"].Value+"/"+sitcom.Value] = true
		} else {
			seen[m["friend"].Value+"/NULL"] = true
		}
		return true
	})
	if !seen["Julia/Seinfeld"] || !seen["Larry/NULL"] {
		t.Errorf("rows = %v", seen)
	}
}

func TestStoreAutoBuild(t *testing.T) {
	s := NewStore()
	s.Add(TripleIRI("a", "p", "b"))
	// Query without explicit Build must build on demand.
	res, err := s.Query(`SELECT * WHERE { ?x <p> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("results = %d", res.Len())
	}
	if !s.Built() {
		t.Error("store should be built after querying")
	}
}

func TestStoreMutationKeepsIndexLive(t *testing.T) {
	s := movieStore(t)
	if !s.Built() {
		t.Fatal("expected built")
	}
	gen := s.Generation()
	s.Add(TripleIRI("New", "hasFriend", "Folks"))
	if !s.Built() {
		t.Fatal("mutation must keep the store built via the delta overlay")
	}
	if g := s.Generation(); g <= gen {
		t.Fatalf("mutation must advance the snapshot generation: %d -> %d", gen, g)
	}
	res, err := s.Query(`SELECT * WHERE { <New> <hasFriend> ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("new triple not visible: %d rows", res.Len())
	}
}

func TestStoreNTriplesRoundTrip(t *testing.T) {
	s := movieStore(t)
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	n, err := s2.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != s.Len() {
		t.Fatalf("loaded %d, want %d", n, s.Len())
	}
	res, err := s2.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("round-tripped store gives %d results", res.Len())
	}
}

func TestStoreStats(t *testing.T) {
	st, err := movieStore(t).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != 11 || st.Predicates != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreExplain(t *testing.T) {
	s := movieStore(t)
	plan, err := s.Explain(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SN0->SN1", "cyclic=false", "best-match=false"} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain output missing %q:\n%s", want, plan)
		}
	}
}

func TestStoreBaselineAgrees(t *testing.T) {
	s := movieStore(t)
	lbrRes, err := s.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []BaselinePolicy{MonetDBLike, VirtuosoLike} {
		bres, err := s.QueryBaseline(movieQ2, pol)
		if err != nil {
			t.Fatal(err)
		}
		if bres.Len() != lbrRes.Len() {
			t.Errorf("policy %v: %d rows vs LBR %d", pol, bres.Len(), lbrRes.Len())
		}
	}
}

func TestStoreIndexSizes(t *testing.T) {
	s := movieStore(t)
	rep, err := s.IndexSizes()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HybridInts <= 0 || rep.HybridBytes() != rep.HybridInts*4 {
		t.Errorf("size report = %+v", rep)
	}
}

func TestResultStringTable(t *testing.T) {
	s := movieStore(t)
	res, err := s.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "?friend") || !strings.Contains(out, "NULL") {
		t.Errorf("table rendering:\n%s", out)
	}
}

func TestStatsExposed(t *testing.T) {
	s := movieStore(t)
	res, err := s.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InitialTriples == 0 {
		t.Error("stats must carry the evaluation metrics")
	}
	if res.Stats.BestMatch {
		t.Error("acyclic query should not need best-match")
	}
}
