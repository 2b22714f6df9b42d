package results

import (
	"io"

	"repro/internal/rdf"
)

// sparqlResultsNS is the namespace of the SPARQL Query Results XML Format
// (https://www.w3.org/TR/rdf-sparql-XMLres/).
const sparqlResultsNS = "http://www.w3.org/2005/sparql-results#"

const xmlProlog = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
	`<sparql xmlns="` + sparqlResultsNS + `">` + "\n"

// xmlWriter emits SPARQL Query Results XML incrementally: prolog and head
// on Begin, one <result> element per Row, the closing tags on End.
type xmlWriter struct {
	rowBuf
	bindings []string // each variable's encoded `<binding name="...">` tag
}

func (x *xmlWriter) Begin(vars []string) error {
	x.bindings = make([]string, len(vars))
	b := append(x.buf[:0], xmlProlog+"<head>"...)
	for i, v := range vars {
		name := string(appendXMLText(nil, v))
		x.bindings[i] = `<binding name="` + name + `">`
		b = append(b, `<variable name="`...)
		b = append(b, name...)
		b = append(b, `"/>`...)
	}
	b = append(b, "</head>\n<results>\n"...)
	return x.write(b)
}

func (x *xmlWriter) Row(row []rdf.Term) error {
	b := append(x.buf[:0], "<result>"...)
	for i, tag := range x.bindings {
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: no <binding> element for the variable
		}
		b = append(b, tag...)
		b = appendXMLTerm(b, row[i])
		b = append(b, "</binding>"...)
	}
	return x.write(append(b, "</result>\n"...))
}

func (x *xmlWriter) End() error {
	_, err := io.WriteString(x.w, "</results>\n</sparql>\n")
	return err
}

func (x *xmlWriter) Boolean(b bool) error {
	body := "<head/>\n<boolean>false</boolean>\n</sparql>\n"
	if b {
		body = "<head/>\n<boolean>true</boolean>\n</sparql>\n"
	}
	_, err := io.WriteString(x.w, xmlProlog+body)
	return err
}

// appendXMLTerm appends one RDF term as the content of a <binding>.
func appendXMLTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, "<uri>"...)
		b = appendXMLText(b, t.Value)
		return append(b, "</uri>"...)
	case rdf.Blank:
		b = append(b, "<bnode>"...)
		b = appendXMLText(b, t.Value)
		return append(b, "</bnode>"...)
	}
	switch {
	case t.Lang != "":
		b = append(b, `<literal xml:lang="`...)
		b = appendXMLText(b, t.Lang)
		b = append(b, `">`...)
	case t.Datatype != "":
		b = append(b, `<literal datatype="`...)
		b = appendXMLText(b, t.Datatype)
		b = append(b, `">`...)
	default:
		b = append(b, "<literal>"...)
	}
	b = appendXMLText(b, t.Value)
	return append(b, "</literal>"...)
}
