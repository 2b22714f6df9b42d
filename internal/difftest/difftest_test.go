package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/sparql"
)

// TestGrammarCoversProductions requires the grammar, from one fixed seed
// at Default weights, to emit every production the fuzzer once reached
// only by luck within a few dozen draws, and every query of every
// harness's weights to parse and be well-designed (the reference
// evaluator and the engine only agree on well-designed queries).
func TestGrammarCoversProductions(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	const draws = 40
	var seen Prod
	for i := 0; i < draws; i++ {
		_, p := Query(rng, Default)
		seen |= p
	}
	if missing := ProdAll &^ seen; missing != 0 {
		t.Fatalf("%d draws at Default weights never emitted: %s", draws, missing)
	}
	for _, w := range []Weights{Baseline, WellDesigned, Union, Filter, Default} {
		for i := 0; i < 200; i++ {
			src, _ := Query(rng, w)
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatalf("generated query does not parse: %s: %v", src, err)
			}
			tree, err := algebra.FromQuery(q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			branches, err := algebra.NormalizeUNF(tree)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for _, b := range branches {
				gosn, err := algebra.BuildGoSN(b.Tree)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if v := algebra.CheckWellDesigned(b.Tree, gosn); len(v) > 0 {
					t.Fatalf("generated query is not well-designed: %s: %v", src, v)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		got, want []string
		ok        bool
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, true},
		{nil, nil, true},
		{[]string{"a", "c"}, []string{"a", "b"}, false},
		{[]string{"a"}, []string{"a", "b"}, false},
		{[]string{"a", "b"}, []string{"a"}, false},
	} {
		if v := Verdict(c.got, c.want); (v == "") != c.ok {
			t.Errorf("Verdict(%v, %v) = %q", c.got, c.want, v)
		}
	}
}
