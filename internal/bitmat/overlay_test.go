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

	od, rd := ov.Dictionary(), rebuilt.Dictionary()
	for _, pred := range []string{"p", "q"} {
		if g, w := ov.PredicateCardinality(od.PredicateID(rdf.NewIRI(pred))),
			rebuilt.PredicateCardinality(rd.PredicateID(rdf.NewIRI(pred))); g != w {
			t.Errorf("PredicateCardinality(%s): overlay %d, rebuilt %d", pred, g, w)
		}
	}
	for _, subj := range []string{"a", "b", "c"} {
		if g, w := ov.SubjectCardinality(od.SubjectID(rdf.NewIRI(subj))),
			rebuilt.SubjectCardinality(rd.SubjectID(rdf.NewIRI(subj))); g != w {
			t.Errorf("SubjectCardinality(%s): overlay %d, rebuilt %d", subj, g, w)
		}
	}
	for _, obj := range []string{"a", "b", "c", "d"} {
		if g, w := ov.ObjectCardinality(od.ObjectID(rdf.NewIRI(obj))),
			rebuilt.ObjectCardinality(rd.ObjectID(rdf.NewIRI(obj))); g != w {
			t.Errorf("ObjectCardinality(%s): overlay %d, rebuilt %d", obj, g, w)
		}
	}
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

func TestOverlayRandomizedAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ent := func() string { return fmt.Sprintf("e%d", rng.Intn(14)) }
	pred := func() string { return fmt.Sprintf("p%d", rng.Intn(3)) }
	for round := 0; round < 25; round++ {
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
			os += int(ov.MatOS(rdf.ID(p)).Count())
		}
		if so != os || int64(so) != ov.NumTriples() {
			t.Fatalf("round %d: SO=%d OS=%d NumTriples=%d", round, so, os, ov.NumTriples())
		}
	}
}
