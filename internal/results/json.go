package results

import (
	"io"

	"repro/internal/rdf"
)

// jsonWriter emits SPARQL 1.1 Query Results JSON
// (https://www.w3.org/TR/sparql11-results-json/). The document is written
// incrementally: head on Begin, one binding object per Row, the closing
// braces on End.
type jsonWriter struct {
	rowBuf
	names []string // each variable's encoded `"name":` prefix
	first bool
}

func (j *jsonWriter) Begin(vars []string) error {
	j.first = true
	j.names = make([]string, len(vars))
	b := append(j.buf[:0], `{"head":{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		b = appendJSONString(b, v)
		j.names[i] = string(b[start:]) + ":"
	}
	b = append(b, `]},"results":{"bindings":[`...)
	return j.write(b)
}

func (j *jsonWriter) Row(row []rdf.Term) error {
	b := j.buf[:0]
	if j.first {
		j.first = false
	} else {
		b = append(b, ',')
	}
	b = append(b, "\n{"...)
	wrote := false
	for i, name := range j.names {
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: the variable is absent from the binding
		}
		if wrote {
			b = append(b, ',')
		}
		wrote = true
		b = append(b, name...)
		b = appendJSONTerm(b, row[i])
	}
	return j.write(append(b, '}'))
}

func (j *jsonWriter) End() error {
	_, err := io.WriteString(j.w, "\n]}}\n")
	return err
}

func (j *jsonWriter) Boolean(b bool) error {
	doc := `{"head":{},"boolean":false}` + "\n"
	if b {
		doc = `{"head":{},"boolean":true}` + "\n"
	}
	_, err := io.WriteString(j.w, doc)
	return err
}

// appendJSONTerm appends one RDF term as a result-set binding object.
func appendJSONTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, `{"type":"uri","value":`...)
	case rdf.Blank:
		b = append(b, `{"type":"bnode","value":`...)
	default:
		b = append(b, `{"type":"literal","value":`...)
	}
	b = appendJSONString(b, t.Value)
	if t.Kind == rdf.Literal && t.Lang != "" {
		b = append(b, `,"xml:lang":`...)
		b = appendJSONString(b, t.Lang)
	} else if t.Kind == rdf.Literal && t.Datatype != "" {
		b = append(b, `,"datatype":`...)
		b = appendJSONString(b, t.Datatype)
	}
	return append(b, '}')
}
