package engine

import (
	"math"
	"regexp"
	"strconv"
	"sync"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file is the engine's filter-expression evaluator: the supported
// SPARQL 1.1 operator core (comparisons with numeric/boolean promotion,
// three-valued logic, bound(), regex(), arithmetic) evaluated per row as
// a post-pass of the join. internal/ref/expr.go implements the same
// semantics independently over the oracle's mappings; the golden operator
// table in filter_golden_test.go asserts every case against both so the
// two cannot drift. The semantics, including the documented deviations
// from the full W3C operator mapping, are spelled out in the README's
// "FILTER expressions" section.

// tv is the three-valued logic of SPARQL filter evaluation: true, false, or
// error (type errors and unbound variables).
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvError
)

func tvOf(b bool) tv {
	if b {
		return tvTrue
	}
	return tvFalse
}

const (
	xsdBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	xsdString  = "http://www.w3.org/2001/XMLSchema#string"
)

// numericDatatypes lists the XSD datatypes whose literals compare
// numerically (the common core of the XSD numeric tower). Kept in
// lockstep with internal/ref/expr.go.
var numericDatatypes = map[string]bool{
	"http://www.w3.org/2001/XMLSchema#integer":            true,
	"http://www.w3.org/2001/XMLSchema#decimal":            true,
	"http://www.w3.org/2001/XMLSchema#float":              true,
	"http://www.w3.org/2001/XMLSchema#double":             true,
	"http://www.w3.org/2001/XMLSchema#long":               true,
	"http://www.w3.org/2001/XMLSchema#int":                true,
	"http://www.w3.org/2001/XMLSchema#short":              true,
	"http://www.w3.org/2001/XMLSchema#byte":               true,
	"http://www.w3.org/2001/XMLSchema#nonNegativeInteger": true,
	"http://www.w3.org/2001/XMLSchema#positiveInteger":    true,
	"http://www.w3.org/2001/XMLSchema#nonPositiveInteger": true,
	"http://www.w3.org/2001/XMLSchema#negativeInteger":    true,
	"http://www.w3.org/2001/XMLSchema#unsignedLong":       true,
	"http://www.w3.org/2001/XMLSchema#unsignedInt":        true,
	"http://www.w3.org/2001/XMLSchema#unsignedShort":      true,
	"http://www.w3.org/2001/XMLSchema#unsignedByte":       true,
}

// numericTerm reports whether t compares as a number, and its value: a
// literal without a language tag, plain or carrying a numeric XSD
// datatype, whose whole lexical form parses as a float.
func numericTerm(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal || t.Lang != "" {
		return 0, false
	}
	if t.Datatype != "" && !numericDatatypes[t.Datatype] {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// booleanTerm reports whether t is an xsd:boolean literal with a valid
// lexical form, and its value.
func booleanTerm(t rdf.Term) (bool, bool) {
	if t.Kind != rdf.Literal || t.Datatype != xsdBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// stringTerm reports whether t is a string in the regex sense: a plain or
// xsd:string literal without a language tag.
func stringTerm(t rdf.Term) bool {
	return t.Kind == rdf.Literal && t.Lang == "" &&
		(t.Datatype == "" || t.Datatype == xsdString)
}

// regexCache memoizes compiled regex(…) patterns across rows and queries;
// join workers evaluate filters concurrently, hence the lock. The cache
// is size-bounded: real workloads reuse a handful of patterns, but the
// patterns come from query text, so an unbounded map would let a client
// grow the process without limit one novel pattern at a time. On
// overflow the whole map resets — cheaper and simpler than LRU ordering
// for a cache whose hit path is a single lookup, and the next few rows
// simply recompile. Compile failures cache as nil (an evaluation-time
// type error every row).
const regexCacheCap = 256

var (
	regexCacheMu sync.Mutex
	regexCache   = make(map[string]*regexp.Regexp, 64) // "flags\x00pattern" -> compiled (nil = invalid)
)

func compiledRegex(pattern, flags string) *regexp.Regexp {
	key := flags + "\x00" + pattern
	regexCacheMu.Lock()
	re, ok := regexCache[key]
	regexCacheMu.Unlock()
	if ok {
		return re
	}
	src := pattern
	if flags != "" {
		src = "(?" + flags + ")" + pattern
	}
	re, err := regexp.Compile(src)
	if err != nil {
		re = nil
	}
	regexCacheMu.Lock()
	if len(regexCache) >= regexCacheCap {
		regexCache = make(map[string]*regexp.Regexp, 64)
	}
	regexCache[key] = re
	regexCacheMu.Unlock()
	return re
}

// RegexCacheSize reports the number of compiled patterns currently held
// by the filter regex cache — bounded by regexCacheCap — for the server's
// metrics endpoints.
func RegexCacheSize() int {
	regexCacheMu.Lock()
	defer regexCacheMu.Unlock()
	return len(regexCache)
}

// fval is the result of evaluating one (sub)expression: an RDF term, a
// number (from arithmetic), a boolean (from comparisons and logic), or a
// type error.
type fvalKind int8

const (
	fvErr fvalKind = iota
	fvTerm
	fvNum
	fvBool
)

type fval struct {
	kind fvalKind
	num  float64
	b    bool
	term rdf.Term
}

var fvalErr = fval{kind: fvErr}

// evalFilter evaluates a filter expression against a row with the
// supported core's three-valued semantics. lookup maps a variable to its
// term; a zero term means NULL/unbound.
func evalFilter(e sparql.Expr, lookup func(sparql.Var) rdf.Term) tv {
	return filterEBV(evalValue(e, lookup))
}

// EvalFilter reports whether a filter expression holds — evaluates to a
// definite true — against one row. lookup maps a variable to its term; a
// zero term means NULL/unbound. It is the one FILTER evaluator of the
// module's engines: the relational baseline calls it too, and only the
// reference evaluator (internal/ref) keeps its own, as the independent
// oracle.
func EvalFilter(e sparql.Expr, lookup func(sparql.Var) rdf.Term) bool {
	return evalFilter(e, lookup) == tvTrue
}

// filterEBV applies the W3C effective-boolean-value rules to a value:
// booleans are themselves; numbers are true unless zero or NaN;
// xsd:boolean literals by (valid) lexical value, with invalid forms false;
// string-ish literals (plain, language-tagged, xsd:string) true when
// non-empty; numeric-typed literals by value with invalid forms false;
// everything else (IRIs, blanks, other datatypes, unbound) a type error.
func filterEBV(v fval) tv {
	switch v.kind {
	case fvBool:
		return tvOf(v.b)
	case fvNum:
		return tvOf(v.num != 0 && !math.IsNaN(v.num))
	case fvTerm:
		t := v.term
		if t.Kind != rdf.Literal {
			return tvError
		}
		switch {
		case t.Datatype == xsdBoolean:
			if b, ok := booleanTerm(t); ok {
				return tvOf(b)
			}
			return tvFalse // invalid lexical form
		case t.Datatype == "" || t.Datatype == xsdString:
			return tvOf(len(t.Value) > 0)
		case numericDatatypes[t.Datatype]:
			f, err := strconv.ParseFloat(t.Value, 64)
			if err != nil {
				return tvFalse // invalid lexical form
			}
			return tvOf(f != 0 && !math.IsNaN(f))
		}
		return tvError
	}
	return tvError
}

func evalValue(e sparql.Expr, lookup func(sparql.Var) rdf.Term) fval {
	switch x := e.(type) {
	case sparql.Bound:
		return fval{kind: fvBool, b: !lookup(x.V).IsZero()}
	case sparql.Not:
		switch filterEBV(evalValue(x.E, lookup)) {
		case tvTrue:
			return fval{kind: fvBool, b: false}
		case tvFalse:
			return fval{kind: fvBool, b: true}
		}
		return fvalErr
	case sparql.Logical:
		l := filterEBV(evalValue(x.L, lookup))
		r := filterEBV(evalValue(x.R, lookup))
		if x.Op == sparql.OpAnd {
			// error && false = false; error && true = error.
			if l == tvFalse || r == tvFalse {
				return fval{kind: fvBool, b: false}
			}
			if l == tvError || r == tvError {
				return fvalErr
			}
			return fval{kind: fvBool, b: true}
		}
		// error || true = true; error || false = error.
		if l == tvTrue || r == tvTrue {
			return fval{kind: fvBool, b: true}
		}
		if l == tvError || r == tvError {
			return fvalErr
		}
		return fval{kind: fvBool, b: false}
	case sparql.Cmp:
		return compareFilter(x.Op, evalValue(x.L, lookup), evalValue(x.R, lookup))
	case sparql.Arith:
		return arithFilter(x.Op, evalValue(x.L, lookup), evalValue(x.R, lookup))
	case sparql.Regex:
		arg := evalValue(x.Arg, lookup)
		if arg.kind != fvTerm || !stringTerm(arg.term) {
			return fvalErr
		}
		re := compiledRegex(x.Pattern, x.Flags)
		if re == nil {
			return fvalErr
		}
		return fval{kind: fvBool, b: re.MatchString(arg.term.Value)}
	case sparql.ExprVar:
		t := lookup(x.V)
		if t.IsZero() {
			return fvalErr
		}
		return fval{kind: fvTerm, term: t}
	case sparql.ExprTerm:
		return fval{kind: fvTerm, term: x.Term}
	}
	return fvalErr
}

// fNum extracts a numeric value: a number, or a numeric literal term.
func fNum(v fval) (float64, bool) {
	switch v.kind {
	case fvNum:
		return v.num, true
	case fvTerm:
		return numericTerm(v.term)
	}
	return 0, false
}

// fBool extracts a boolean value: a boolean, or a valid xsd:boolean term.
func fBool(v fval) (bool, bool) {
	switch v.kind {
	case fvBool:
		return v.b, true
	case fvTerm:
		return booleanTerm(v.term)
	}
	return false, false
}

// compareFilter applies a comparison with the promotion ladder of the
// supported core: numbers first (numeric literals and arithmetic results
// compare by value), then booleans (false < true), then RDF terms —
// equality is term identity (cross-kind inequality is false, not an
// error), ordering is byte-wise on the value for same-kind, same-language
// terms (covering plain-literal and IRI ordering) and a type error
// otherwise.
func compareFilter(op sparql.CmpOp, l, r fval) fval {
	if l.kind == fvErr || r.kind == fvErr {
		return fvalErr
	}
	if lf, lok := fNum(l); lok {
		if rf, rok := fNum(r); rok {
			if math.IsNaN(lf) || math.IsNaN(rf) {
				// IEEE 754: NaN is unequal to and unordered with everything.
				return fval{kind: fvBool, b: op == sparql.OpNe}
			}
			return orderedResult(op, threeWayFloat(lf, rf))
		}
	}
	if lb, lok := fBool(l); lok {
		if rb, rok := fBool(r); rok {
			return orderedResult(op, threeWayBool(lb, rb))
		}
	}
	if l.kind == fvTerm && r.kind == fvTerm {
		switch op {
		case sparql.OpEq:
			return fval{kind: fvBool, b: l.term == r.term}
		case sparql.OpNe:
			return fval{kind: fvBool, b: l.term != r.term}
		}
		if l.term.Kind != r.term.Kind || l.term.Lang != r.term.Lang {
			return fvalErr
		}
		return orderedResult(op, threeWayString(l.term.Value, r.term.Value))
	}
	return fvalErr
}

func orderedResult(op sparql.CmpOp, c int) fval {
	var b bool
	switch op {
	case sparql.OpEq:
		b = c == 0
	case sparql.OpNe:
		b = c != 0
	case sparql.OpLt:
		b = c < 0
	case sparql.OpLe:
		b = c <= 0
	case sparql.OpGt:
		b = c > 0
	case sparql.OpGe:
		b = c >= 0
	default:
		return fvalErr
	}
	return fval{kind: fvBool, b: b}
}

func threeWayFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func threeWayBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

func threeWayString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// arithFilter applies an arithmetic operator over numeric operands; a
// non-numeric operand or a division by zero is a type error.
func arithFilter(op sparql.ArithOp, l, r fval) fval {
	lf, lok := fNum(l)
	rf, rok := fNum(r)
	if !lok || !rok {
		return fvalErr
	}
	var f float64
	switch op {
	case sparql.OpAdd:
		f = lf + rf
	case sparql.OpSub:
		f = lf - rf
	case sparql.OpMul:
		f = lf * rf
	case sparql.OpDiv:
		if rf == 0 {
			return fvalErr
		}
		f = lf / rf
	default:
		return fvalErr
	}
	return fval{kind: fvNum, num: f}
}

// numeric is the loose number parse ORDER BY comparisons use (any literal
// whose value parses); filter comparisons use the stricter numericTerm.
func numeric(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}
