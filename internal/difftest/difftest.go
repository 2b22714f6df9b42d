// Package difftest is the differential-testing kit: one random graph
// generator, one grammar-level query generator whose production weights
// are explicit, and the row keys every differential harness compares
// with. It is imported only from _test.go files, and it imports only rdf,
// sparql, ref and algebra, so the in-package tests of engine, baseline
// and the root package can use it without an import cycle.
package difftest

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// entities is the size of the IRI universe <e0>..<e11> Graph draws from:
// small, so joins and OPTIONALs hit both matching and missing cases.
const entities = 12

// preds are the IRI-valued predicates of Graph. absentPred never occurs
// in a generated graph.
var preds = []string{"p0", "p1", "p2", "p3"}

const absentPred = "px"

// Graph builds a random graph of n IRI triples over preds and entities,
// plus n/4+2 literal-valued ones for the filter surface: <pa> binds typed
// xsd:integer objects, <pn> plain strings including the EBV corners ""
// and "0" and number-shaped text.
func Graph(rng *rand.Rand, n int) *rdf.Graph {
	g := rdf.NewGraph()
	ent := func() string { return fmt.Sprintf("e%d", rng.Intn(entities)) }
	for i := 0; i < n; i++ {
		g.Add(rdf.T(ent(), preds[rng.Intn(len(preds))], ent()))
	}
	strs := []string{"", "0", "alpha", "beta", "a show", "10", "Gamma"}
	for i := 0; i < n/4+2; i++ {
		s := rdf.NewIRI(ent())
		if rng.Intn(2) == 0 {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI("pa"),
				O: rdf.NewTypedLiteral(strconv.Itoa(rng.Intn(40)-5),
					"http://www.w3.org/2001/XMLSchema#integer")})
		} else {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI("pn"),
				O: rdf.NewLiteral(strs[rng.Intn(len(strs))])})
		}
	}
	return g
}

// RefSrc parses src and evaluates it on g with the reference evaluator,
// failing tb on either error. It returns the query, the reference's
// sorted keys (RefKeys) and their columns: the result variables ordered
// by name, so keys of results that order their columns differently still
// compare value for value under each variable's name.
func RefSrc(tb testing.TB, g *rdf.Graph, src string) (*sparql.Query, []string, []sparql.Var) {
	tb.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		tb.Fatalf("query does not parse: %q: %v", src, err)
	}
	maps, vars, err := ref.New(g).Execute(q)
	if err != nil {
		tb.Fatalf("ref on %q: %v", src, err)
	}
	vars = ByName(vars)
	return q, RefKeys(maps, vars), vars
}

// ByName returns a copy of vars sorted by name: the column order of keys
// that compare results by variable name rather than by position.
func ByName[V ~string](vars []V) []V {
	out := slices.Clone(vars)
	slices.Sort(out)
	return out
}

// RefKeys renders reference mappings as Keys over vars. A zero term — the
// empty IRI <> — renders as NULL on both sides, as engine rows cannot
// tell it from an unbound cell.
func RefKeys(maps []ref.Mapping, vars []sparql.Var) []string {
	rows := make([][]rdf.Term, len(maps))
	for i, m := range maps {
		rows[i] = make([]rdf.Term, len(vars))
		for k, v := range vars {
			rows[i][k] = m[v]
		}
	}
	return Keys(vars, rows, vars)
}

// Keys is the sorted-multiset key: rows, laid out over cols, rendered
// over vars in ref.Key's format (terms joined by '|', NULL for a variable
// unbound in the row or absent from cols) and sorted, so engine,
// baseline and store results compare directly with RefSrc and RefKeys.
func Keys[R ~[]rdf.Term, C, V ~string](cols []C, rows []R, vars []V) []string {
	pos := make(map[string]int, len(cols))
	for i, c := range cols {
		pos[string(c)] = i
	}
	out := make([]string, len(rows))
	parts := make([]string, len(vars))
	for i, r := range rows {
		for k, v := range vars {
			parts[k] = "NULL"
			if p, ok := pos[string(v)]; ok {
				parts[k] = cell(r[p])
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// Exact is the exact in-order key: every column of every row, in result
// order, in Keys' format. Byte-identity checks (across worker counts,
// cache passes, streamed versus collected routes) compare it.
func Exact[R ~[]rdf.Term](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for k, t := range r {
			parts[k] = cell(t)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// cell renders one term of a key: NULL for an unbound (zero) term.
func cell(t rdf.Term) string {
	if t.IsZero() {
		return "NULL"
	}
	return t.String()
}

// Verdict compares two key lists and describes their first difference;
// it returns "" when they are equal.
func Verdict(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d of %d/%d: got %s, want %s", i, len(got), len(want), got[i], want[i])
		}
	}
	switch {
	case len(got) > len(want):
		return fmt.Sprintf("%d rows, want %d: extra %s", len(got), len(want), got[len(want)])
	case len(got) < len(want):
		return fmt.Sprintf("%d rows, want %d: missing %s", len(got), len(want), want[len(got)])
	}
	return ""
}

// BaselineDomain reports whether q lies in the relational baseline's
// domain: no UNION under an OPTIONAL whose alternatives bind different
// variables. The baseline's hash join is null-intolerant by design, so a
// left outer join whose right side carries NULLs from unequal union arms
// may drop rows SPARQL keeps; everything else the grammar emits, the
// baseline answers exactly.
func BaselineDomain(q *sparql.Query) bool { return baselineDomain(q.Where, false) }

func baselineDomain(g sparql.Group, underOpt bool) bool {
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.Optional:
			if !baselineDomain(el.Group, true) {
				return false
			}
		case sparql.SubGroup:
			if !baselineDomain(el.Group, underOpt) {
				return false
			}
		case sparql.Union:
			first := sparql.GroupVars(el.Alternatives[0])
			for _, alt := range el.Alternatives {
				if underOpt && !maps.Equal(sparql.GroupVars(alt), first) {
					return false
				}
				if !baselineDomain(alt, underOpt) {
					return false
				}
			}
		}
	}
	return true
}
