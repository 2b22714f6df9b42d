package engine

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func lookupFrom(m map[sparql.Var]rdf.Term) func(sparql.Var) rdf.Term {
	return func(v sparql.Var) rdf.Term { return m[v] }
}

func TestEvalFilterComparisons(t *testing.T) {
	env := lookupFrom(map[sparql.Var]rdf.Term{
		"a": rdf.NewTypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer"),
		"b": rdf.NewTypedLiteral("7.5", "http://www.w3.org/2001/XMLSchema#decimal"),
		"s": rdf.NewLiteral("hello"),
		"i": rdf.NewIRI("http://x"),
	})
	cases := []struct {
		expr sparql.Expr
		want tv
	}{
		{sparql.Cmp{Op: sparql.OpLt, L: sparql.ExprVar{V: "a"}, R: sparql.ExprVar{V: "b"}}, tvTrue},
		{sparql.Cmp{Op: sparql.OpGe, L: sparql.ExprVar{V: "a"}, R: sparql.ExprVar{V: "b"}}, tvFalse},
		{sparql.Cmp{Op: sparql.OpEq, L: sparql.ExprVar{V: "a"}, R: sparql.ExprTerm{Term: rdf.NewTypedLiteral("5.0", "")}}, tvTrue}, // numeric equality
		{sparql.Cmp{Op: sparql.OpNe, L: sparql.ExprVar{V: "s"}, R: sparql.ExprTerm{Term: rdf.NewLiteral("hello")}}, tvFalse},
		{sparql.Cmp{Op: sparql.OpEq, L: sparql.ExprVar{V: "i"}, R: sparql.ExprTerm{Term: rdf.NewIRI("http://x")}}, tvTrue},
		// Cross-kind equality is false, cross-kind ordering an error.
		{sparql.Cmp{Op: sparql.OpEq, L: sparql.ExprVar{V: "i"}, R: sparql.ExprVar{V: "s"}}, tvFalse},
		{sparql.Cmp{Op: sparql.OpLt, L: sparql.ExprVar{V: "i"}, R: sparql.ExprVar{V: "s"}}, tvError},
		// Unbound variable: error.
		{sparql.Cmp{Op: sparql.OpEq, L: sparql.ExprVar{V: "zz"}, R: sparql.ExprVar{V: "a"}}, tvError},
		// String ordering.
		{sparql.Cmp{Op: sparql.OpLt, L: sparql.ExprVar{V: "s"}, R: sparql.ExprTerm{Term: rdf.NewLiteral("world")}}, tvTrue},
	}
	for i, c := range cases {
		if got := evalFilter(c.expr, env); got != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, c.expr, got, c.want)
		}
	}
}

func TestEvalFilterThreeValuedLogic(t *testing.T) {
	env := lookupFrom(map[sparql.Var]rdf.Term{
		"x": rdf.NewLiteral("1"),
	})
	errE := sparql.Cmp{Op: sparql.OpLt, L: sparql.ExprVar{V: "unbound"}, R: sparql.ExprVar{V: "x"}}
	trueE := sparql.Cmp{Op: sparql.OpEq, L: sparql.ExprVar{V: "x"}, R: sparql.ExprVar{V: "x"}}
	falseE := sparql.Cmp{Op: sparql.OpNe, L: sparql.ExprVar{V: "x"}, R: sparql.ExprVar{V: "x"}}

	cases := []struct {
		expr sparql.Expr
		want tv
	}{
		// error && false = false (SPARQL 17.2).
		{sparql.Logical{Op: sparql.OpAnd, L: errE, R: falseE}, tvFalse},
		// error && true = error.
		{sparql.Logical{Op: sparql.OpAnd, L: errE, R: trueE}, tvError},
		// error || true = true.
		{sparql.Logical{Op: sparql.OpOr, L: errE, R: trueE}, tvTrue},
		// error || false = error.
		{sparql.Logical{Op: sparql.OpOr, L: errE, R: falseE}, tvError},
		// !error = error.
		{sparql.Not{E: errE}, tvError},
		{sparql.Not{E: trueE}, tvFalse},
		{sparql.Not{E: falseE}, tvTrue},
	}
	for i, c := range cases {
		if got := evalFilter(c.expr, env); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestEvalFilterBound(t *testing.T) {
	env := lookupFrom(map[sparql.Var]rdf.Term{"x": rdf.NewIRI("v")})
	if evalFilter(sparql.Bound{V: "x"}, env) != tvTrue {
		t.Error("bound(?x) must be true for a bound var")
	}
	if evalFilter(sparql.Bound{V: "y"}, env) != tvFalse {
		t.Error("bound(?y) must be false (not error) for NULL")
	}
	// !bound(?y): the standard way to test for missing optional parts.
	if evalFilter(sparql.Not{E: sparql.Bound{V: "y"}}, env) != tvTrue {
		t.Error("!bound(?y) must be true")
	}
}

func TestCompareTermsNumericVsString(t *testing.T) {
	cmpTerms := func(op sparql.CmpOp, l, r rdf.Term) tv {
		return filterEBV(compareFilter(op,
			fval{kind: fvTerm, term: l}, fval{kind: fvTerm, term: r}))
	}
	// "10" < "9" as strings but 10 > 9 numerically: literals that parse as
	// numbers compare numerically.
	l := rdf.NewLiteral("10")
	r := rdf.NewLiteral("9")
	if cmpTerms(sparql.OpLt, l, r) != tvFalse {
		t.Error("numeric literals must compare numerically")
	}
	// Explicitly non-numeric strings compare lexicographically.
	if cmpTerms(sparql.OpLt, rdf.NewLiteral("abc"), rdf.NewLiteral("abd")) != tvTrue {
		t.Error("string comparison broken")
	}
	// A number-shaped plain literal against a non-numeric one falls back to
	// byte-wise string ordering (simple literals compare as strings when
	// numeric promotion doesn't apply): "10" < "abc".
	if cmpTerms(sparql.OpLt, rdf.NewLiteral("10"), rdf.NewLiteral("abc")) != tvTrue {
		t.Error("plain-literal fallback ordering must be byte-wise")
	}
	// Language-tagged values never compare numerically.
	if cmpTerms(sparql.OpLt, rdf.NewLangLiteral("10", "en"), rdf.NewLiteral("9")) != tvError {
		t.Error("lang-tagged vs plain ordering must be a type error")
	}
}

func TestRegexCacheBounded(t *testing.T) {
	// Flood the cache with distinct patterns: the size must never exceed
	// the cap, valid and invalid patterns must keep evaluating correctly
	// after resets, and repeated lookups must hit.
	for i := 0; i < 3*regexCacheCap; i++ {
		p := fmt.Sprintf("^prefix%d", i)
		if compiledRegex(p, "") == nil {
			t.Fatalf("valid pattern %q failed to compile", p)
		}
		if n := RegexCacheSize(); n > regexCacheCap {
			t.Fatalf("cache grew to %d entries, cap is %d", n, regexCacheCap)
		}
	}
	if compiledRegex("(unclosed", "") != nil {
		t.Fatal("invalid pattern compiled")
	}
	if compiledRegex("(unclosed", "") != nil {
		t.Fatal("invalid pattern hit as valid after caching")
	}
	re := compiledRegex("^a.*z$", "i")
	if re == nil || !re.MatchString("AbcZ") {
		t.Fatal("cached regex does not match as compiled with flags")
	}
}
