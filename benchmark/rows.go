package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	lbr "repro"
	"repro/internal/rdf"
)

// A result is compared as a multiset of canonical rows: the terms in
// N-Triples syntax, tab-separated, in the order of the sorted variable
// names, an unbound variable being the empty field. The multiset is
// summarised as the row count plus the sum of the rows' FNV-64 hashes,
// which does not depend on row order.

// rowSet is that summary.
type rowSet struct {
	Vars []string // sorted
	Rows int
	Sum  uint64
}

func (a rowSet) equal(b rowSet) bool {
	return a.Rows == b.Rows && a.Sum == b.Sum && strings.Join(a.Vars, "\t") == strings.Join(b.Vars, "\t")
}

// rowSetBuilder accumulates rows given in some variable order.
type rowSetBuilder struct {
	set  rowSet
	perm []int // perm[i] is the input column of the i-th sorted variable
	buf  []byte
}

func newRowSetBuilder(vars []string) *rowSetBuilder {
	b := &rowSetBuilder{perm: make([]int, len(vars))}
	for i := range b.perm {
		b.perm[i] = i
	}
	sort.Slice(b.perm, func(i, j int) bool { return vars[b.perm[i]] < vars[b.perm[j]] })
	for _, p := range b.perm {
		b.set.Vars = append(b.set.Vars, vars[p])
	}
	return b
}

// add takes one row as rendered fields (N-Triples syntax, "" unbound).
func (b *rowSetBuilder) add(fields []string) {
	b.buf = b.buf[:0]
	for i, p := range b.perm {
		if i > 0 {
			b.buf = append(b.buf, '\t')
		}
		if p < len(fields) {
			b.buf = append(b.buf, fields[p]...)
		}
	}
	h := fnv.New64a()
	h.Write(b.buf)
	b.set.Sum += h.Sum64()
	b.set.Rows++
}

func renderTerms(row []lbr.Term, into []string) []string {
	into = into[:0]
	for _, t := range row {
		if t.IsZero() {
			into = append(into, "")
		} else {
			into = append(into, t.String())
		}
	}
	return into
}

// rowSetOfResult summarises a library result.
func rowSetOfResult(res *lbr.Result) rowSet {
	b := newRowSetBuilder(res.Vars)
	var fields []string
	for i := 0; i < res.Len(); i++ {
		fields = renderTerms(res.Row(i), fields)
		b.add(fields)
	}
	return b.set
}

// rowSetOfTSV parses a SPARQL TSV document. The terms are already in
// N-Triples syntax, which escapes tabs and newlines inside literals.
func rowSetOfTSV(doc []byte) (rowSet, error) {
	lines := strings.Split(strings.TrimSuffix(string(doc), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return rowSet{}, fmt.Errorf("tsv: no header line")
	}
	var vars []string
	for _, h := range strings.Split(lines[0], "\t") {
		if !strings.HasPrefix(h, "?") {
			return rowSet{}, fmt.Errorf("tsv: header field %q lacks the ? prefix", h)
		}
		vars = append(vars, h[1:])
	}
	b := newRowSetBuilder(vars)
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, "\t")
		if len(fields) != len(vars) {
			return rowSet{}, fmt.Errorf("tsv: row has %d fields, header %d", len(fields), len(vars))
		}
		b.add(fields)
	}
	return b.set, nil
}

// rowSetOfJSON parses a SPARQL 1.1 Query Results JSON document.
func rowSetOfJSON(doc []byte) (rowSet, error) {
	var parsed struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results *struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return rowSet{}, fmt.Errorf("json: %w", err)
	}
	if parsed.Results == nil {
		return rowSet{}, fmt.Errorf("json: no results member")
	}
	b := newRowSetBuilder(parsed.Head.Vars)
	fields := make([]string, len(parsed.Head.Vars))
	for _, binding := range parsed.Results.Bindings {
		for i, v := range parsed.Head.Vars {
			t, ok := binding[v]
			if !ok {
				fields[i] = ""
				continue
			}
			term := rdf.Term{Value: t.Value}
			switch t.Type {
			case "uri":
				term.Kind = rdf.IRI
			case "bnode":
				term.Kind = rdf.Blank
			case "literal", "typed-literal":
				term.Kind, term.Lang, term.Datatype = rdf.Literal, t.Lang, t.Datatype
			default:
				return rowSet{}, fmt.Errorf("json: binding type %q", t.Type)
			}
			fields[i] = term.String()
		}
		b.add(fields)
	}
	return b.set, nil
}

// countTSVRows counts the solutions of a TSV document without parsing
// them: one per line after the header.
func countTSVRows(doc []byte) int {
	n := bytes.Count(doc, []byte{'\n'})
	if len(doc) > 0 && doc[len(doc)-1] != '\n' {
		n++
	}
	return n - 1
}

// countJSONRows counts the solutions of a results-JSON document by
// nesting depth alone — the objects opened directly inside
// root → "results" → "bindings" — so it is independent of the
// serializer's whitespace and member order within a binding. ok is false
// when the document's brackets do not balance.
func countJSONRows(doc []byte) (rows int, ok bool) {
	depth := 0
	inString := false
	for i := 0; i < len(doc); i++ {
		c := doc[i]
		if inString {
			switch c {
			case '\\':
				i++
			case '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{':
			if depth == 3 {
				rows++
			}
			depth++
		case '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	return rows, depth == 0 && !inString
}
