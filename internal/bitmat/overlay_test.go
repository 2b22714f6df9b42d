package bitmat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
)

// overlayFixture builds a base index plus an overlay applying ins/del, and
// the rebuilt index over the mutated graph for comparison.
func overlayFixture(t *testing.T, base []rdf.Triple, ins, del []rdf.Triple) (*Overlay, *Index) {
	t.Helper()
	g := rdf.NewGraph()
	g.AddAll(base)
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOverlay(idx, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	gm := g.Clone()
	for _, tr := range del {
		gm.Remove(tr)
	}
	gm.AddAll(ins)
	rebuilt, err := Build(gm)
	if err != nil {
		t.Fatal(err)
	}
	return ov, rebuilt
}

// triplesOf decodes every triple a Source exposes through its per-predicate
// pair lists into string form.
func triplesOf(t *testing.T, dict *rdf.Dictionary, pairs func(p rdf.ID) []Pair) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for p := 1; p <= dict.NumPredicates(); p++ {
		for _, pr := range pairs(rdf.ID(p)) {
			tr, err := dict.Decode(rdf.IDTriple{S: rdf.ID(pr.A), P: rdf.ID(p), O: rdf.ID(pr.B)})
			if err != nil {
				t.Fatal(err)
			}
			out[tr.String()] = true
		}
	}
	return out
}

func TestOverlayMatchesRebuiltIndex(t *testing.T) {
	base := []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "q", "c"),
		rdf.T("d", "q", "a"),
	}
	ins := []rdf.Triple{
		rdf.T("c", "p", "e"), // new term e as object; c gains subject role
		rdf.T("e", "q", "d"), // e gains subject role too -> ext pair
	}
	del := []rdf.Triple{rdf.T("b", "p", "c")}
	ov, rebuilt := overlayFixture(t, base, ins, del)

	got := triplesOf(t, ov.Dictionary(), ov.SOPairs)
	want := triplesOf(t, rebuilt.Dictionary(), rebuilt.SOPairs)
	if len(got) != len(want) {
		t.Fatalf("triple sets differ: overlay %d, rebuilt %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("rebuilt has %s, overlay does not", k)
		}
	}
	if ov.NumTriples() != rebuilt.NumTriples() {
		t.Errorf("NumTriples: overlay %d, rebuilt %d", ov.NumTriples(), rebuilt.NumTriples())
	}
	if ov.DeltaSize() != 3 {
		t.Errorf("DeltaSize: want 3, got %d", ov.DeltaSize())
	}
}

func TestOverlayCardinalities(t *testing.T) {
	base := []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("a", "p", "c"),
		rdf.T("b", "q", "c"),
	}
	ov, rebuilt := overlayFixture(t, base,
		[]rdf.Triple{rdf.T("a", "p", "d"), rdf.T("c", "q", "a")},
		[]rdf.Triple{rdf.T("a", "p", "b")})

	for _, pat := range [][3]string{
		{"", "p", ""}, {"", "q", ""},
		{"a", "", ""}, {"b", "", ""}, {"c", "", ""},
		{"", "", "a"}, {"", "", "b"}, {"", "", "c"}, {"", "", "d"},
	} {
		if g, w := countTerms(ov, pat), countTerms(rebuilt, pat); g != w {
			t.Errorf("Count%q: overlay %d, rebuilt %d", pat, g, w)
		}
	}
	od := ov.Dictionary()
	// Contains must reflect the merged view, not the base.
	if ov.Contains(mustEncode(t, od, rdf.T("a", "p", "b"))) {
		t.Error("deleted triple still Contains")
	}
	if !ov.Contains(mustEncode(t, od, rdf.T("a", "p", "d"))) {
		t.Error("inserted triple not Contains")
	}
	if !ov.Contains(mustEncode(t, od, rdf.T("b", "q", "c"))) {
		t.Error("untouched base triple not Contains")
	}
}

// countTerms is Count over IRI names, "" marking a variable. A name the
// source's dictionary lacks matches nothing.
func countTerms(src Source, pat [3]string) int64 {
	d := src.Dictionary()
	var id [3]rdf.ID
	for i, lookup := range []func(rdf.Term) rdf.ID{d.SOID, d.PredicateID, d.SOID} {
		if pat[i] == "" {
			continue
		}
		if id[i] = lookup(rdf.NewIRI(pat[i])); id[i] == 0 {
			return 0
		}
	}
	return Count(src, id[0], id[1], id[2])
}

func mustEncode(t *testing.T, d *rdf.Dictionary, tr rdf.Triple) (s, p, o rdf.ID) {
	t.Helper()
	it, err := d.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return it.S, it.P, it.O
}

func TestOverlayRejectsInvalidDelta(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T("a", "p", "b"))
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		ins, del []rdf.Triple
	}{
		{"insert already in base", []rdf.Triple{rdf.T("a", "p", "b")}, nil},
		{"delete not in base", nil, []rdf.Triple{rdf.T("x", "p", "y")}},
		{"duplicate insert", []rdf.Triple{rdf.T("c", "p", "d"), rdf.T("c", "p", "d")}, nil},
		{"duplicate delete", nil, []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("a", "p", "b")}},
	}
	for _, tc := range cases {
		if _, err := NewOverlay(idx, tc.ins, tc.del); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// randomDelta draws a 20-triple base graph over 14 entities and 3
// predicates and applies six random adds or removes to a copy. It returns
// the overlay of that delta on the base index, the index rebuilt from the
// mutated graph, and the mutated graph itself.
func randomDelta(t *testing.T, rng *rand.Rand) (*Overlay, *Index, *rdf.Graph) {
	t.Helper()
	ent := func() string { return fmt.Sprintf("e%d", rng.Intn(14)) }
	pred := func() string { return fmt.Sprintf("p%d", rng.Intn(3)) }
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(rdf.T(ent(), pred(), ent()))
	}
	gm := g.Clone()
	for i := 0; i < 6; i++ {
		if rng.Intn(2) == 0 && gm.Len() > 0 {
			ts := gm.Triples()
			gm.Remove(ts[rng.Intn(len(ts))])
		} else {
			gm.Add(rdf.T(ent(), pred(), ent()))
		}
	}
	var ins, del []rdf.Triple
	for _, tr := range gm.Triples() {
		if !g.Contains(tr) {
			ins = append(ins, tr)
		}
	}
	for _, tr := range g.Triples() {
		if !gm.Contains(tr) {
			del = append(del, tr)
		}
	}
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOverlay(idx, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Build(gm)
	if err != nil {
		t.Fatal(err)
	}
	return ov, rebuilt, gm
}

func TestOverlayRandomizedAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 25; round++ {
		ov, rebuilt, _ := randomDelta(t, rng)
		got := triplesOf(t, ov.Dictionary(), ov.SOPairs)
		want := triplesOf(t, rebuilt.Dictionary(), rebuilt.SOPairs)
		if len(got) != len(want) {
			t.Fatalf("round %d: overlay %d triples, rebuilt %d", round, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("round %d: overlay missing %s", round, k)
			}
		}
		// The OS orientation and per-subject/per-object postings must agree
		// with the SO view on cardinality sums.
		var so, os int
		for p := 1; p <= ov.Dictionary().NumPredicates(); p++ {
			so += len(ov.SOPairs(rdf.ID(p)))
			os += int(MatOS(ov, rdf.ID(p), nil, nil).Count())
		}
		if so != os || int64(so) != ov.NumTriples() {
			t.Fatalf("round %d: SO=%d OS=%d NumTriples=%d", round, so, os, ov.NumTriples())
		}
	}
}

// TestCountModel checks the shared read layer against a model: on every
// pattern shape, with every in-range ID plus one past the end of each
// dimension in every bound position, Count over the overlay, Count over
// the rebuilt index and the number of matching triples in the reference
// graph agree, and the shape's loader materializes exactly that many bits.
func TestCountModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 25; round++ {
		ov, rebuilt, gm := randomDelta(t, rng)
		od, rd := ov.Dictionary(), rebuilt.Dictionary()
		// term decodes an overlay ID of one position (0 = variable) and
		// maps it into the rebuilt index, where a term it lacks becomes
		// one past the end. in reports whether the ID names a term.
		term := func(id rdf.ID, n int, decode func(rdf.ID) (rdf.Term, error),
			lookup func(rdf.Term) rdf.ID, rn int) (tm rdf.Term, rid rdf.ID, in bool) {
			if id == 0 {
				return rdf.Term{}, 0, true
			}
			if int(id) > n {
				return rdf.Term{}, rdf.ID(rn + 1), false
			}
			tm, err := decode(id)
			if err != nil {
				t.Fatal(err)
			}
			if rid = lookup(tm); rid == 0 {
				rid = rdf.ID(rn + 1)
			}
			return tm, rid, true
		}
		for s := 0; s <= od.NumSO()+1; s++ {
			st, rs, sIn := term(rdf.ID(s), od.NumSO(), od.SOTerm, rd.SOID, rd.NumSO())
			for p := 0; p <= od.NumPredicates()+1; p++ {
				pt, rp, pIn := term(rdf.ID(p), od.NumPredicates(), od.Predicate, rd.PredicateID, rd.NumPredicates())
				for o := 0; o <= od.NumSO()+1; o++ {
					ot, ro, oIn := term(rdf.ID(o), od.NumSO(), od.SOTerm, rd.SOID, rd.NumSO())
					var want int64
					if sIn && pIn && oIn {
						for _, tr := range gm.Triples() {
							if (s == 0 || tr.S == st) && (p == 0 || tr.P == pt) && (o == 0 || tr.O == ot) {
								want++
							}
						}
					}
					got := Count(ov, rdf.ID(s), rdf.ID(p), rdf.ID(o))
					if rc := Count(rebuilt, rs, rp, ro); got != want || rc != want {
						t.Fatalf("round %d (%d %d %d): overlay %d, rebuilt %d, graph %d", round, s, p, o, got, rc, want)
					}
					checkLoaders(t, ov, rdf.ID(s), rdf.ID(p), rdf.ID(o), want)
					checkLoaders(t, rebuilt, rs, rp, ro, want)
				}
			}
		}
	}
}

// checkLoaders asserts that the loaders of the pattern shape (s p o), 0
// marking a variable, materialize want bits.
func checkLoaders(t *testing.T, src Source, s, p, o rdf.ID, want int64) {
	t.Helper()
	var mats []*Matrix
	switch {
	case s == 0 && o == 0 && p != 0:
		mats = []*Matrix{MatSO(src, p, nil, nil), MatOS(src, p, nil, nil)}
	case s == 0 && p == 0 && o != 0:
		mats = []*Matrix{MatPS(src, o)}
	case p == 0 && o == 0 && s != 0:
		mats = []*Matrix{MatPO(src, s)}
	case s == 0 && p != 0 && o != 0:
		mats = []*Matrix{RowPS(src, p, o)}
	case o == 0 && s != 0 && p != 0:
		mats = []*Matrix{RowPO(src, p, s)}
	case p == 0 && s != 0 && o != 0:
		mats = []*Matrix{RowP(src, s, o)}
	}
	for _, m := range mats {
		if m.Count() != want {
			t.Fatalf("(%d %d %d): loader holds %d bits, Count says %d", s, p, o, m.Count(), want)
		}
	}
}
