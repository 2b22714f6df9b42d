package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadNTriples parses N-Triples from r into a new Graph (see
// ScanNTriples for the grammar).
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	if err := ScanNTriples(r, func(tr Triple) { g.Add(tr) }); err != nil {
		return nil, err
	}
	return g, nil
}

// ScanNTriples parses N-Triples from r and calls fn with each statement,
// in input order and duplicates included. Lines that are empty or start
// with '#' are skipped. The parser covers the subset of the N-Triples
// grammar the generators emit: IRIs, blank nodes, and literals with
// optional datatype or language tag, with the common backslash escapes.
// A malformed line stops the scan with an error naming its line number;
// fn has then already seen the statements before it.
func ScanNTriples(r io.Reader, fn func(Triple)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tr, err := ParseTripleLine(line)
		if err != nil {
			return fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		fn(tr)
	}
	return sc.Err()
}

// ReadNTriplesParallel is ReadNTriples; the worker argument is ignored.
// It exists only for the benchmark module's parse probe
// (benchmark/probes.go): ROADMAP item 12's benchmark-only change moves
// that probe to ReadNTriples, and the change after it deletes this
// wrapper.
func ReadNTriplesParallel(r io.Reader, _ int) (*Graph, error) { return ReadNTriples(r) }

// ParseTripleLine parses one N-Triples statement, with or without the
// trailing dot.
func ParseTripleLine(line string) (Triple, error) {
	p := &ntParser{s: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	if pred.Kind != IRI {
		return Triple{}, fmt.Errorf("predicate must be an IRI, got %s", pred)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
	}
	p.skipSpace()
	if p.i < len(p.s) {
		return Triple{}, fmt.Errorf("trailing garbage %q", p.s[p.i:])
	}
	return Triple{S: s, P: pred, O: o}, nil
}

type ntParser struct {
	s string
	i int
}

func (p *ntParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		end := strings.IndexByte(p.s[p.i:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.s[p.i+1 : p.i+end]
		p.i += end + 1
		return NewIRI(iri), nil
	case '_':
		if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		j := p.i + 2
		for j < len(p.s) && p.s[j] != ' ' && p.s[j] != '\t' {
			j++
		}
		label := p.s[p.i+2 : j]
		if label == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		p.i = j
		return NewBlank(label), nil
	case '"':
		val, rest, err := parseQuoted(p.s[p.i:])
		if err != nil {
			return Term{}, err
		}
		p.i = len(p.s) - len(rest)
		t := Term{Kind: Literal, Value: val}
		if strings.HasPrefix(rest, "@") {
			j := 1
			for j < len(rest) && rest[j] != ' ' && rest[j] != '\t' {
				j++
			}
			t.Lang = rest[1:j]
			p.i += j
		} else if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest[3:], '>')
			if end < 0 {
				return Term{}, fmt.Errorf("unterminated datatype IRI")
			}
			t.Datatype = rest[3 : 3+end]
			p.i += 3 + end + 1
		}
		return t, nil
	}
	return Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
}

// parseQuoted consumes a double-quoted string with backslash escapes,
// returning the unescaped value and the unconsumed remainder.
func parseQuoted(s string) (string, string, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected opening quote")
	}
	var sb strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return sb.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			sb.WriteByte(c)
		}
		i++
	}
	return "", "", fmt.Errorf("unterminated literal")
}

// WriteNTriples serializes the graph, one statement per line.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, tr := range g.Triples() {
		if _, err := bw.WriteString(tr.String()); err != nil {
			return err
		}
		if _, err := bw.WriteString(" .\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
