// Package sparql parses the SPARQL subset the paper targets: SELECT queries
// over basic graph patterns with arbitrarily nested OPTIONAL patterns, plus
// UNION and safe FILTERs (which the engine handles by rewrite, Section 5.2).
package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Var is a SPARQL variable name without the leading '?'.
type Var string

// Node is one position of a triple pattern: either a variable or a concrete
// RDF term.
type Node struct {
	IsVar bool
	Var   Var
	Term  rdf.Term
}

// V returns a variable node.
func V(name string) Node { return Node{IsVar: true, Var: Var(name)} }

// TermNode returns a concrete-term node.
func TermNode(t rdf.Term) Node { return Node{Term: t} }

// IRINode returns a concrete IRI node.
func IRINode(iri string) Node { return Node{Term: rdf.NewIRI(iri)} }

func (n Node) String() string {
	if n.IsVar {
		return "?" + string(n.Var)
	}
	return n.Term.String()
}

// TriplePattern is one (S P O) pattern with variables.
type TriplePattern struct {
	S, P, O Node
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the distinct variables of the pattern in S, P, O order.
func (tp TriplePattern) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// IDs resolves the pattern's positions in d: 0 for a variable, the term's
// ID for a fixed term. ok is false when a fixed term is not in d, so the
// pattern matches nothing. The IDs are the (s, p, o) that bitmat.Count and
// the BitMat loaders take.
func (tp TriplePattern) IDs(d *rdf.Dictionary) (s, p, o rdf.ID, ok bool) {
	ok = true
	resolve := func(n Node, lookup func(rdf.Term) rdf.ID) rdf.ID {
		if n.IsVar {
			return 0
		}
		id := lookup(n.Term)
		if id == 0 {
			ok = false
		}
		return id
	}
	s = resolve(tp.S, d.SOID)
	p = resolve(tp.P, d.PredicateID)
	o = resolve(tp.O, d.SOID)
	return s, p, o, ok
}

// HasVar reports whether the pattern mentions v.
func (tp TriplePattern) HasVar(v Var) bool {
	return (tp.S.IsVar && tp.S.Var == v) || (tp.P.IsVar && tp.P.Var == v) || (tp.O.IsVar && tp.O.Var == v)
}

// Group is a group graph pattern: the ordered elements between braces.
type Group struct {
	Elements []Element
}

// Element is one member of a group graph pattern.
type Element interface {
	isElement()
	String() string
}

// TriplesBlock is a run of triple patterns.
type TriplesBlock struct {
	Patterns []TriplePattern
}

func (TriplesBlock) isElement() {}
func (tb TriplesBlock) String() string {
	parts := make([]string, len(tb.Patterns))
	for i, tp := range tb.Patterns {
		parts[i] = tp.String() + " ."
	}
	return strings.Join(parts, " ")
}

// Optional is an OPTIONAL { ... } element.
type Optional struct {
	Group Group
}

func (Optional) isElement() {}
func (o Optional) String() string {
	return "OPTIONAL { " + o.Group.String() + " }"
}

// SubGroup is a nested { ... } element.
type SubGroup struct {
	Group Group
}

func (SubGroup) isElement() {}
func (sg SubGroup) String() string {
	return "{ " + sg.Group.String() + " }"
}

// Union is a chain of { } UNION { } alternatives.
type Union struct {
	Alternatives []Group
}

func (Union) isElement() {}
func (u Union) String() string {
	parts := make([]string, len(u.Alternatives))
	for i, g := range u.Alternatives {
		parts[i] = "{ " + g.String() + " }"
	}
	return strings.Join(parts, " UNION ")
}

// Filter is a FILTER(expr) element.
type Filter struct {
	Expr Expr
}

func (Filter) isElement() {}
func (f Filter) String() string {
	return "FILTER (" + f.Expr.String() + ")"
}

func (g Group) String() string {
	parts := make([]string, len(g.Elements))
	for i, e := range g.Elements {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  Var
	Desc bool
}

// Query is a parsed SELECT or ASK query.
type Query struct {
	Prefixes map[string]string
	// Ask marks an ASK query (existence check; Select is empty).
	Ask bool
	// Select lists the projected variables; nil means SELECT *.
	Select   []Var
	Distinct bool
	Where    Group
	// OrderBy lists the sort keys; empty means no ordering.
	OrderBy []OrderKey
	// Limit and Offset are the solution modifiers; -1 means unset.
	Limit, Offset int
}

// SelectAll reports whether the query projects every variable.
func (q *Query) SelectAll() bool { return q.Select == nil }

func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if q.SelectAll() {
		sb.WriteString("*")
	} else {
		for i, v := range q.Select {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString("?" + string(v))
		}
	}
	sb.WriteString(" WHERE { ")
	sb.WriteString(q.Where.String())
	sb.WriteString(" }")
	return sb.String()
}

// Expr is a filter expression.
type Expr interface {
	String() string
	// Vars appends the variables mentioned by the expression.
	Vars(map[Var]bool)
}

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators of the safe-filter subset.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c Cmp) String() string { return c.L.String() + " " + string(c.Op) + " " + c.R.String() }
func (c Cmp) Vars(m map[Var]bool) {
	c.L.Vars(m)
	c.R.Vars(m)
}

// LogicalOp is a boolean connective.
type LogicalOp string

// Boolean connectives.
const (
	OpAnd LogicalOp = "&&"
	OpOr  LogicalOp = "||"
)

// Logical is a binary boolean expression.
type Logical struct {
	Op   LogicalOp
	L, R Expr
}

func (l Logical) String() string {
	return "(" + l.L.String() + " " + string(l.Op) + " " + l.R.String() + ")"
}
func (l Logical) Vars(m map[Var]bool) {
	l.L.Vars(m)
	l.R.Vars(m)
}

// Not negates an expression.
type Not struct {
	E Expr
}

func (n Not) String() string      { return "!(" + n.E.String() + ")" }
func (n Not) Vars(m map[Var]bool) { n.E.Vars(m) }

// Bound is the bound(?v) builtin.
type Bound struct {
	V Var
}

func (b Bound) String() string      { return "bound(?" + string(b.V) + ")" }
func (b Bound) Vars(m map[Var]bool) { m[b.V] = true }

// ArithOp is an arithmetic operator.
type ArithOp string

// Arithmetic operators over numeric literals.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-"
	OpMul ArithOp = "*"
	OpDiv ArithOp = "/"
)

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a Arith) String() string {
	return "(" + a.L.String() + " " + string(a.Op) + " " + a.R.String() + ")"
}
func (a Arith) Vars(m map[Var]bool) {
	a.L.Vars(m)
	a.R.Vars(m)
}

// Regex is the regex(text, pattern[, flags]) builtin. Pattern and flags
// are restricted to constant string literals at parse time, and flags to
// the "i"/"s"/"m" subset that maps onto Go's RE2 flags.
type Regex struct {
	Arg            Expr
	Pattern, Flags string
}

func (r Regex) String() string {
	s := "regex(" + r.Arg.String() + ", " + quoteString(r.Pattern)
	if r.Flags != "" {
		s += ", " + quoteString(r.Flags)
	}
	return s + ")"
}
func (r Regex) Vars(m map[Var]bool) { r.Arg.Vars(m) }

// quoteString renders a SPARQL string literal with the escapes the lexer
// understands, so expression strings round-trip through the parser.
func quoteString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			out = append(out, '\\', '"')
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		case '\t':
			out = append(out, '\\', 't')
		case '\r':
			out = append(out, '\\', 'r')
		default:
			out = append(out, c)
		}
	}
	out = append(out, '"')
	return string(out)
}

// ExprVar is a variable reference.
type ExprVar struct {
	V Var
}

func (e ExprVar) String() string      { return "?" + string(e.V) }
func (e ExprVar) Vars(m map[Var]bool) { m[e.V] = true }

// ExprTerm is a constant term.
type ExprTerm struct {
	Term rdf.Term
}

func (e ExprTerm) String() string  { return e.Term.String() }
func (ExprTerm) Vars(map[Var]bool) {}

// ExprVars returns the set of variables an expression mentions.
func ExprVars(e Expr) map[Var]bool {
	m := map[Var]bool{}
	e.Vars(m)
	return m
}

// GroupVars returns every variable mentioned in triple patterns of the
// group, recursively.
func GroupVars(g Group) map[Var]bool {
	m := map[Var]bool{}
	collectGroupVars(g, m)
	return m
}

func collectGroupVars(g Group, m map[Var]bool) {
	for _, el := range g.Elements {
		switch e := el.(type) {
		case TriplesBlock:
			for _, tp := range e.Patterns {
				for _, v := range tp.Vars() {
					m[v] = true
				}
			}
		case Optional:
			collectGroupVars(e.Group, m)
		case SubGroup:
			collectGroupVars(e.Group, m)
		case Union:
			for _, alt := range e.Alternatives {
				collectGroupVars(alt, m)
			}
		case Filter:
			// Filter variables do not bind; skip.
		default:
			panic(fmt.Sprintf("sparql: unknown element %T", el))
		}
	}
}
