package results

import (
	"io"

	"repro/internal/rdf"
)

// csvWriter emits the SPARQL 1.1 CSV results format
// (https://www.w3.org/TR/sparql11-results-csv-tsv/): a header of bare
// variable names, then one RFC 4180 record per solution with terms in
// their raw lexical form (IRIs unbracketed, literals unquoted, blank
// nodes as _:label) and unbound variables as empty fields. Rows end in
// CRLF. ASK has no CSV form in the spec; Boolean writes a single
// true/false record as a pragmatic extension.
type csvWriter struct {
	rowBuf
	cols int
}

func (c *csvWriter) Begin(vars []string) error {
	c.cols = len(vars)
	b := c.buf[:0]
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, "", v)
	}
	return c.write(append(b, "\r\n"...))
}

func (c *csvWriter) Row(row []rdf.Term) error {
	b := c.buf[:0]
	for i := 0; i < c.cols; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: empty field
		}
		// The raw lexical form; blank nodes keep their _: prefix.
		prefix := ""
		if row[i].Kind == rdf.Blank {
			prefix = "_:"
		}
		b = appendCSVField(b, prefix, row[i].Value)
	}
	return c.write(append(b, "\r\n"...))
}

func (c *csvWriter) End() error { return nil }

func (c *csvWriter) Boolean(b bool) error {
	s := "false\r\n"
	if b {
		s = "true\r\n"
	}
	_, err := io.WriteString(c.w, s)
	return err
}

// tsvWriter emits the SPARQL 1.1 TSV results format: a header of
// ?-prefixed variable names, then one LF-terminated record per solution
// with terms in SPARQL (N-Triples) syntax — tabs and newlines inside
// literals are backslash-escaped by that syntax, so a record never spans
// lines. Unbound variables are empty fields. Boolean writes true/false as
// a pragmatic extension (the spec defines TSV for SELECT only).
type tsvWriter struct {
	rowBuf
	cols int
}

func (t *tsvWriter) Begin(vars []string) error {
	t.cols = len(vars)
	b := t.buf[:0]
	for i, v := range vars {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, '?')
		b = append(b, v...)
	}
	return t.write(append(b, '\n'))
}

func (t *tsvWriter) Row(row []rdf.Term) error {
	b := t.buf[:0]
	for i := 0; i < t.cols; i++ {
		if i > 0 {
			b = append(b, '\t')
		}
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: empty field
		}
		b = row[i].Append(b)
	}
	return t.write(append(b, '\n'))
}

func (t *tsvWriter) End() error { return nil }

func (t *tsvWriter) Boolean(b bool) error {
	s := "false\n"
	if b {
		s = "true\n"
	}
	_, err := io.WriteString(t.w, s)
	return err
}
