package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// patternShape names a pattern's shape: which positions are variables,
// and whether subject and object are one variable.
func patternShape(tp sparql.TriplePattern) string {
	shape := ""
	for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
		if n.IsVar {
			shape += "?"
		} else {
			shape += "c"
		}
	}
	if tp.S.IsVar && tp.S.Var == tp.O.Var {
		shape += " self"
	}
	return shape
}

// TestZeroCountMeansEmptyLoad checks the soundness of deciding a branch
// empty from its plan: for every pattern the difftest grammar draws, over
// a built index and over an overlay with inserts and deletes, the load
// never holds more triples than bitmat.Count, so a count of 0 is an empty
// load.
func TestZeroCountMeansEmptyLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	shapes := map[string]int{}
	zeros := 0
	for gi := 0; gi < 12; gi++ {
		g := difftest.Graph(rng, 20+rng.Intn(40))
		idx := indexOf(t, g)
		var ins, del []rdf.Triple
		for _, tr := range g.Triples() {
			if rng.Intn(4) == 0 {
				del = append(del, tr)
			}
		}
		for range 6 {
			tr := rdf.T(fmt.Sprintf("e%d", rng.Intn(16)), fmt.Sprintf("p%d", rng.Intn(5)), fmt.Sprintf("e%d", rng.Intn(16)))
			if !g.Contains(tr) && !slices.Contains(ins, tr) {
				ins = append(ins, tr)
			}
		}
		ov, err := bitmat.NewOverlay(idx, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []bitmat.Source{idx, ov} {
			e := New(src, Options{})
			for range 15 {
				text, _ := difftest.Query(rng, difftest.Default)
				q, err := sparql.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				p := e.Prepare(q)
				if p.err != nil {
					continue
				}
				for i := range p.execs {
					bp, _ := e.planOf(p, i)
					if bp.err != nil {
						continue
					}
					gosn := bp.plan.GoSN
					for k, pat := range gosn.Patterns {
						st, err := e.load(pat, k, gosn.SNOfTP[k], bp.plan, nil, nil)
						if err != nil {
							t.Fatalf("%s: load %s: %v", text, pat, err)
						}
						n := bp.plan.Counts[k]
						if got := st.count(); got > n {
							t.Fatalf("%s: %s loads %d triples, Count says %d", text, pat, got, n)
						}
						shapes[patternShape(pat)]++
						if n == 0 {
							zeros++
						}
					}
				}
			}
		}
	}
	for _, want := range []string{"?c?", "?c? self", "?cc", "cc?", "ccc"} {
		if shapes[want] == 0 {
			t.Errorf("no pattern of shape %q drawn; shapes: %v", want, shapes)
		}
	}
	if zeros == 0 {
		t.Error("no zero-count pattern drawn")
	}
}

// TestOverlayPlansEmpty pins the two overlay cases of the plan's
// emptiness decision: a pattern whose only triples a delta deleted is
// planned empty, and a pattern only an uncompacted insert matches is not.
func TestOverlayPlansEmpty(t *testing.T) {
	g := figure32Graph()
	idx := indexOf(t, g)
	ov, err := bitmat.NewOverlay(idx,
		[]rdf.Triple{rdf.T("Larry", "directed", "CurbYourEnthu")},
		[]rdf.Triple{rdf.T("Jerry", "hasFriend", "Julia"), rdf.T("Jerry", "hasFriend", "Larry")})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ov, Options{})
	for _, c := range []struct {
		src   string
		empty bool
		rows  int
	}{
		{`SELECT * WHERE { ?x <actedIn> ?y . ?z <hasFriend> ?x . }`, true, 0},
		{`SELECT * WHERE { ?x <actedIn> ?y . ?x <directed> ?y . }`, false, 1},
	} {
		q, err := sparql.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Prepare(q)
		bp, _ := e.planOf(p, 0)
		if bp.err != nil {
			t.Fatal(bp.err)
		}
		if (bp.emptyAt >= 0) != c.empty {
			t.Errorf("%s: planned empty at %d, want empty=%v", c.src, bp.emptyAt, c.empty)
		}
		res, err := e.Execute(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows || res.Stats.EmptyShortcut != c.empty {
			t.Errorf("%s: %d rows, shortcut %v; want %d rows, shortcut %v",
				c.src, len(res.Rows), res.Stats.EmptyShortcut, c.rows, c.empty)
		}
	}
}
