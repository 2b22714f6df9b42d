package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Weights are the production weights of the query grammar. Percentages
// are chances out of 100 per decision; the Opt* kind fields are relative
// weights. Every query the grammar emits is well-designed: an OPTIONAL
// reuses variables of the block built so far and otherwise mints fresh
// ones, and a FILTER mentions only variables of its own scope.
type Weights struct {
	Alts      int // top-level UNION alternatives: 1..Alts
	SharedAlt int // % a later alternative starts from a variable of an earlier one
	Chain     int // master chain patterns per block: 1..Chain
	ConstEnd  int // % a chain step ends in a constant instead of a fresh variable
	FullScan  int // % the master gains a ?s ?p ?o pattern
	Literal   int // % (tried up to twice) the master gains a literal-valued edge

	MinOpt, MaxOpt int // OPTIONALs per block: MinOpt..MaxOpt

	// Relative weights of the OPTIONAL kinds: a plain one, a UNION of
	// single patterns, a ?link ?p ?o full scan, and a group joined to a
	// UNION, OPTIONAL { {A} {B} UNION {C} }.
	OptPlain, OptUnion, OptScan, OptGroupUnion int

	OptChain  int // % a plain OPTIONAL chains a second pattern off its first
	OptFilter int // % a plain OPTIONAL filters its own literal edge (FaN)
	Nested    int // % a plain OPTIONAL nests another OPTIONAL

	Filter      int // % a block carries a FILTER over its master variables
	FilterDepth int // &&/||/! nesting levels of that FILTER: up to 1..FilterDepth
	// OptOperands lets that FILTER also test the object and literal
	// variables of the block's plain OPTIONALs, which are unbound on rows
	// where the OPTIONAL failed or was nullified.
	OptOperands bool

	// The productions the query fuzzer once reached only by luck.
	AbsentPred int // % a pattern under OPTIONAL uses a predicate absent from Graph
	VarFree    int // % a plain OPTIONAL gains a variable-free pattern, a guard
	PeerSplit  int // % the UNION's second arm of a group-union shares only master variables with the group
	EmptyArms  int // % every arm of an OPTIONAL's UNION uses an absent predicate
}

// The weights of the differential harnesses. Each reproduces the
// production mix its harness generated before the kit existed.
var (
	// Baseline: a variable chain with single-pattern OPTIONALs.
	Baseline = Weights{Chain: 3, MinOpt: 1, MaxOpt: 2, OptPlain: 1}
	// WellDesigned: nested BGP-OPT queries over IRI patterns.
	WellDesigned = Weights{Chain: 3, ConstEnd: 33, MinOpt: 1, MaxOpt: 2,
		OptPlain: 1, OptChain: 50, Nested: 33}
	// Union: UNIONs of BGP-OPT blocks with UNION-under-OPTIONAL, full
	// scans, literal edges and filters.
	Union = Weights{Alts: 3, SharedAlt: 50, Chain: 3, ConstEnd: 33, FullScan: 25,
		Literal: 50, MinOpt: 1, MaxOpt: 2, OptPlain: 3, OptUnion: 1, OptScan: 1,
		OptChain: 50, OptFilter: 33, Nested: 33, Filter: 50, FilterDepth: 2}
	// Filter: one block per query, mostly filtered, over literal edges.
	Filter = Weights{Chain: 2, Literal: 60, MaxOpt: 1, OptPlain: 1,
		OptFilter: 66, Filter: 75, FilterDepth: 1, OptOperands: true}
	// Default is Union plus every production the fuzzer found by luck.
	Default = func() Weights {
		w := Union
		w.OptGroupUnion, w.AbsentPred, w.VarFree, w.PeerSplit, w.EmptyArms = 2, 10, 20, 50, 25
		return w
	}()
)

// Prod is a set of the productions a generated query used, the ones the
// fuzzer once reached only by luck.
type Prod uint

const (
	ProdAbsentPred Prod = 1 << iota // a predicate absent from the graph
	ProdVarFree                     // a variable-free pattern
	ProdPeerSplit                   // rule-3 peers sharing only master variables
	ProdEmptyArms                   // a UNION whose arms all use absent predicates
	ProdGroupUnion                  // a group joined to a UNION under OPTIONAL
	ProdAll        = ProdAbsentPred | ProdVarFree | ProdPeerSplit | ProdEmptyArms | ProdGroupUnion
)

var prodNames = []string{"absent predicate", "variable-free pattern",
	"peers sharing only master variables", "all-empty UNION arms", "group joined to UNION"}

func (p Prod) String() string {
	var names []string
	for i, n := range prodNames {
		if p&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, ", ")
}

// Query generates a SELECT * query from the grammar under weights w, and
// reports which of the fuzzer-found productions it used.
func Query(rng *rand.Rand, w Weights) (string, Prod) {
	g := &gen{rng: rng, w: w}
	alts := make([]string, g.upTo(w.Alts))
	for i := range alts {
		if i > 0 && g.pct(w.SharedAlt) {
			// Sharing a name (not patterns) overlaps the alternatives'
			// columns: the merge aligns them and fills NULLs.
			alts[i] = g.pat(g.pick(g.minted), g.newVar()) + " " + g.block()
		} else {
			alts[i] = g.block()
		}
	}
	body := alts[0]
	if len(alts) > 1 {
		body = "{ " + strings.Join(alts, "} UNION { ") + "} "
	}
	return "SELECT * WHERE { " + body + "}", g.prods
}

// gen is one query's generation state. Variable and predicate-variable
// counters are shared across UNION alternatives so fresh names never
// collide (a reused predicate variable would be a predicate join, which
// the engine rejects by design).
type gen struct {
	rng         *rand.Rand
	w           Weights
	nVar, nPVar int
	minted      []string
	prods       Prod
}

func (g *gen) pct(p int) bool          { return g.rng.Intn(100) < p }
func (g *gen) upTo(n int) int          { return 1 + g.rng.Intn(max(n, 1)) }
func (g *gen) pick(vs []string) string { return vs[g.rng.Intn(len(vs))] }
func (g *gen) entity() string          { return fmt.Sprintf("<e%d>", g.rng.Intn(entities)) }
func (g *gen) pat(s, o string) string  { return fmt.Sprintf("%s <%s> %s .", s, g.pick(preds), o) }

func (g *gen) newPredVar() string {
	g.nPVar++
	return fmt.Sprintf("?pv%d", g.nPVar-1)
}

// absent emits s <px> o, a pattern no generated graph matches.
func (g *gen) absent(s, o string) string {
	g.prods |= ProdAbsentPred
	return fmt.Sprintf("%s <%s> %s .", s, absentPred, o)
}

// optPat is pat under an OPTIONAL, where AbsentPred may swap in the
// absent predicate.
func (g *gen) optPat(s, o string) string {
	if g.pct(g.w.AbsentPred) {
		return g.absent(s, o)
	}
	return g.pat(s, o)
}

func (g *gen) newVar() string {
	v := fmt.Sprintf("?v%d", g.nVar)
	g.nVar++
	g.minted = append(g.minted, v)
	return v
}

// choose draws an index with probability proportional to its weight;
// all-zero weights choose 0.
func (g *gen) choose(ws ...int) int {
	total := 0
	for _, w := range ws {
		total += w
	}
	if total == 0 {
		return 0
	}
	r := g.rng.Intn(total)
	for i, w := range ws {
		if r < w {
			return i
		}
		r -= w
	}
	return 0
}

// litPat emits a literal-valued pattern off subject s and returns it with
// its fresh object variable: numeric (typed integers via <pa>) or string
// (plain literals via <pn>).
func (g *gen) litPat(s string) (pat, v string, numeric bool) {
	v = g.newVar()
	numeric = g.rng.Intn(2) == 0
	p := "pn"
	if numeric {
		p = "pa"
	}
	return fmt.Sprintf("%s <%s> %s .", s, p, v), v, numeric
}

// block emits one BGP-OPT group: a connected master chain, optionally a
// ?s ?p ?o full scan and literal edges, its OPTIONALs, and a FILTER.
func (g *gen) block() string {
	var b strings.Builder
	prev := g.newVar()
	vars := []string{prev}
	for i, n := 0, g.upTo(g.w.Chain); i < n; i++ {
		next := g.entity()
		if !g.pct(g.w.ConstEnd) {
			next = g.newVar()
			vars = append(vars, next)
		}
		b.WriteString(g.pat(prev, next) + " ")
		if next[0] == '?' {
			prev = next
		}
	}
	if g.pct(g.w.FullScan) {
		// Joins the chain on the subject; the predicate variable occurs
		// exactly once in the whole query.
		o := g.newVar()
		fmt.Fprintf(&b, "%s %s %s . ", g.pick(vars), g.newPredVar(), o)
		vars = append(vars, o)
	}
	ops := operands{iri: slices.Clone(vars)}
	for len(ops.num)+len(ops.str) < 2 && g.pct(g.w.Literal) {
		p, v, numeric := g.litPat(g.pick(vars))
		b.WriteString(p + " ")
		ops.add(v, numeric)
	}
	for k, n := 0, g.w.MinOpt+g.rng.Intn(g.w.MaxOpt-g.w.MinOpt+1); k < n; k++ {
		b.WriteString(g.optional(vars, &ops))
	}
	// A top-level FILTER's scope covers the block's OPTIONALs too; with
	// OptOperands its operands include their variables, so cells the
	// OPTIONAL left unbound hit the per-row type-error path.
	if g.pct(g.w.Filter) {
		fmt.Fprintf(&b, "FILTER (%s) ", g.filterExpr(ops, g.upTo(g.w.FilterDepth)))
	}
	return b.String()
}

// operands are the FILTER operands of a block by class: num (typed
// integers via <pa>), str (plain strings via <pn>), iri (IRI-valued).
type operands struct{ num, str, iri []string }

func (o *operands) add(v string, numeric bool) {
	if numeric {
		o.num = append(o.num, v)
	} else {
		o.str = append(o.str, v)
	}
}

// optional emits one OPTIONAL linked to the block through master
// variables. With OptOperands a plain OPTIONAL adds the variables it
// binds to the block's FILTER operands ops.
func (g *gen) optional(vars []string, ops *operands) string {
	link := g.pick(vars)
	switch g.choose(g.w.OptPlain, g.w.OptUnion, g.w.OptScan, g.w.OptGroupUnion) {
	case 1:
		return "OPTIONAL { " + g.union(g.unionArms(link, vars)) + " } "
	case 2:
		// Expands per predicate under rule 3.
		return fmt.Sprintf("OPTIONAL { %s %s %s . } ", link, g.newPredVar(), g.newVar())
	case 3:
		// The group and the first arm share a fresh variable; the second
		// arm shares either it or, as a rule-3 peer of the group, only a
		// master variable.
		g.prods |= ProdGroupUnion
		a := g.newVar()
		group := g.optPat(link, a)
		c := [2]string{a, g.newVar()}
		if g.pct(g.w.PeerSplit) {
			g.prods |= ProdPeerSplit
			c[0] = g.pick(vars)
		}
		return fmt.Sprintf("OPTIONAL { { %s } %s } ", group, g.union([][2]string{{a, g.newVar()}, c}))
	}
	ov := g.newVar()
	if g.w.OptOperands {
		ops.iri = append(ops.iri, ov)
	}
	body := g.optPat(link, ov) + " "
	if g.pct(g.w.OptChain) {
		body += g.optPat(ov, g.newVar()) + " "
	}
	if g.pct(g.w.VarFree) {
		g.prods |= ProdVarFree
		body += g.optPat(g.entity(), g.entity()) + " "
	}
	if g.pct(g.w.OptFilter) {
		// Filter-as-nullification over a variable the OPTIONAL itself
		// binds; a filter over master variables would be unsafe by scope.
		p, lv, numeric := g.litPat(ov)
		body += p + " "
		if g.w.OptOperands {
			ops.add(lv, numeric)
		}
		if numeric {
			body += fmt.Sprintf("FILTER (%s > %d) ", lv, g.rng.Intn(30))
		} else {
			body += fmt.Sprintf("FILTER (regex(%s, \"a\")) ", lv)
		}
	}
	if g.pct(g.w.Nested) {
		body += fmt.Sprintf("OPTIONAL { %s } ", g.optPat(ov, g.newVar()))
	}
	return "OPTIONAL { " + body + "} "
}

// unionArms draws the (subject, object) arms of a UNION under OPTIONAL.
func (g *gen) unionArms(link string, vars []string) [][2]string {
	switch g.rng.Intn(4) {
	case 0:
		return [][2]string{{link, g.newVar()}, {link, g.newVar()}}
	case 1:
		// Arms of unequal richness sharing the object: a match of the
		// poorer arm is content-subsumed by the richer one, and the
		// minimum union must still keep it.
		x, z := g.newVar(), g.newVar()
		return [][2]string{{x, z}, {link, z}}
	case 2:
		// One witnessless arm: it reuses only master variables.
		return [][2]string{{link, g.newVar()}, {g.pick(vars), link}}
	}
	// Every arm witnessless.
	return [][2]string{{link, g.pick(vars)}, {g.pick(vars), link}}
}

// union renders arms as { s <p> o . } UNION { ... }; with EmptyArms every
// arm uses the absent predicate.
func (g *gen) union(arms [][2]string) string {
	empty := g.pct(g.w.EmptyArms)
	if empty {
		g.prods |= ProdEmptyArms
	}
	parts := make([]string, len(arms))
	for i, a := range arms {
		if empty {
			parts[i] = g.absent(a[0], a[1])
		} else {
			parts[i] = g.optPat(a[0], a[1])
		}
	}
	return "{ " + strings.Join(parts, " } UNION { ") + " }"
}

// filterExpr builds a random FILTER body over the block's operands.
// Shapes cover the supported core —
// comparisons, arithmetic, regex, bound(), bare-EBV atoms, nowhere-vars
// (unbound everywhere) and nested &&/||/! — including ill-typed mixes so
// the type-error drop rows get differential coverage.
func (g *gen) filterExpr(ops operands, depth int) string {
	rng, num, str, iri := g.rng, ops.num, ops.str, ops.iri
	if depth > 0 && rng.Intn(3) == 0 {
		op := "&&"
		if rng.Intn(2) == 0 {
			op = "||"
		}
		return fmt.Sprintf("(%s %s %s)",
			g.filterExpr(ops, depth-1), op, g.filterExpr(ops, depth-1))
	}
	if depth > 0 && rng.Intn(8) == 0 {
		return fmt.Sprintf("!(%s)", g.filterExpr(ops, depth-1))
	}
	cmp := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	var choices []func() string
	if len(num) > 0 {
		choices = append(choices,
			func() string { return fmt.Sprintf("%s %s %d", g.pick(num), cmp, rng.Intn(40)-5) },
			func() string { return fmt.Sprintf("%s + %d %s %d", g.pick(num), rng.Intn(5), cmp, rng.Intn(40)) },
			func() string { return fmt.Sprintf("2 * %s %s %s", g.pick(num), cmp, g.pick(num)) },
			func() string { return g.pick(num) }, // bare EBV: 0 is false
		)
		if len(str) > 0 {
			// Number vs string errors unless the string is number-shaped.
			choices = append(choices, func() string {
				return fmt.Sprintf("%s %s %s", g.pick(num), cmp, g.pick(str))
			})
		}
	}
	if len(str) > 0 {
		pats := []string{"^a", "0", "a.*a", "^$", "SHOW"}
		choices = append(choices,
			func() string {
				p := pats[rng.Intn(len(pats))]
				if rng.Intn(2) == 0 {
					return fmt.Sprintf("regex(%s, %q, \"i\")", g.pick(str), p)
				}
				return fmt.Sprintf("regex(%s, %q)", g.pick(str), p)
			},
			func() string { return fmt.Sprintf("%s %s \"beta\"", g.pick(str), cmp) },
			func() string { return g.pick(str) }, // bare EBV: "" is false
		)
	}
	choices = append(choices,
		func() string { return fmt.Sprintf("%s %s %s", g.pick(iri), cmp, g.entity()) },
		func() string { return fmt.Sprintf("bound(%s)", g.pick(iri)) },
		func() string { return "bound(?nowhere)" },
		func() string { return "!bound(?nowhere)" },
	)
	return choices[rng.Intn(len(choices))]()
}
