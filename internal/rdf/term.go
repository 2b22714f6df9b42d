// Package rdf provides the RDF data model underneath LBR: terms, triples,
// an N-Triples reader/writer, an in-memory graph, and the dictionary that
// maps terms to the integer coordinates of the 3D bitcube. Subjects and
// objects share one ID space, so that S-O joins are bit-position joins
// (the paper's Appendix D gets there with a shared prefix instead; see
// Dictionary).
package rdf

import "fmt"

// TermKind distinguishes the three RDF term categories.
type TermKind uint8

const (
	// IRI is a full IRI reference such as <http://example.org/x>.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node with a local identifier. The paper notes blank
	// nodes are queried like IRIs and are unrelated to NULLs (Section 2.2).
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Term is an RDF term. Value holds the IRI string, the literal lexical form,
// or the blank node label. Datatype and Lang qualify literals only.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(v, datatype string) Term {
	return Term{Kind: Literal, Value: v, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(v, lang string) Term {
	return Term{Kind: Literal, Value: v, Lang: lang}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsZero reports whether t is the zero Term (no kind-IRI with empty value is
// used as "absent" throughout the engine).
func (t Term) IsZero() bool { return t == Term{} }

// String renders the term in N-Triples syntax, as Append does. A rendering
// that fits the stack buffer costs one allocation, the string itself.
func (t Term) String() string {
	var buf [128]byte
	return string(t.Append(buf[:0]))
}

// Append appends the term's N-Triples rendering to dst and returns the
// extended slice; String is this rendering as a string. A literal's quotes,
// backslashes, newlines, carriage returns and tabs are escaped; every other
// byte of its lexical form, invalid UTF-8 included, is copied verbatim.
func (t Term) Append(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case Blank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case Literal:
		dst = append(dst, '"')
		dst = appendEscapedLiteral(dst, t.Value)
		dst = append(dst, '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			dst = append(dst, t.Lang...)
		} else if t.Datatype != "" {
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	}
	return append(dst, '?')
}

// Key returns a canonical map key for the term. Distinct terms have
// distinct keys; the key embeds kind, datatype and language.
func (t Term) Key() string {
	switch t.Kind {
	case IRI:
		return "I" + t.Value
	case Blank:
		return "B" + t.Value
	default:
		return "L" + t.Datatype + "\x00" + t.Lang + "\x00" + t.Value
	}
}

// appendEscapedLiteral appends s with the five N-Triples escapes applied
// byte by byte. The escaped characters are all ASCII, so every other byte,
// invalid UTF-8 included, is copied verbatim and the rendering stays
// injective: ParseTripleLine reads back the exact lexical form.
func appendEscapedLiteral(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\r':
			esc = `\r`
		case '\t':
			esc = `\t`
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// Triple is one RDF statement (S P O).
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without the final dot).
func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String()
}

// T is a convenience constructor for IRI-only triples, used heavily in
// tests and generators.
func T(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

// TL is a convenience constructor for a triple with a literal object.
func TL(s, p, lit string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewLiteral(lit)}
}
