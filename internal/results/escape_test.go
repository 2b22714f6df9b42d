package results

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// escaperCases are the strings the escapers must render exactly as the
// standard library does: every byte below 0x20, the characters JSON, XML
// and N-Triples treat specially, DEL, U+2028, U+2029, U+FFFE, U+FFFF,
// U+FFFD, astral runes, and invalid UTF-8 (a lone continuation byte, a
// truncated 3-byte sequence, overlong encodings, an encoded surrogate,
// bytes no UTF-8 holds), alone and mixed with text.
func escaperCases() []string {
	cases := []string{
		"", "plain", `"`, `\`, "<", ">", "&", "'", `"\<>&'`, "\x7f",
		"\xe2\x80\xa8",     // U+2028
		"\xe2\x80\xa9",     // U+2029
		"\xef\xbf\xbe",     // U+FFFE
		"\xef\xbf\xbf",     // U+FFFF
		"\xef\xbf\xbd",     // U+FFFD, validly encoded
		"\xf0\x9f\x98\x80", // U+1F600
		"\xf0\x90\x80\x80", // U+10000
		"\xf4\x8f\xbf\xbf", // U+10FFFF
		"\xe2\x98\x83",     // U+2603
		"\xc3\xa9",         // U+00E9
		"\xed\x9f\xbf",     // U+D7FF
		"\xee\x80\x80",     // U+E000
		"\x80",             // lone continuation byte
		"\xe2\x82",         // truncated 3-byte sequence
		"\xc0\xaf",         // overlong '/'
		"\xe0\x80\xaf",     // overlong '/', 3 bytes
		"\xed\xa0\x80",     // encoded surrogate U+D800
		"\xf4\x90\x80\x80", // beyond U+10FFFF
		"\xff", "\xfe",
		"a\x80b", "tab\there\x80",
		"he said \"hi\",\nthen <left>\ta\xe2\x98\x83",
		"x\xe2\x80\xa8y\xe2\x80\xa9z\x00\x1f&",
		"\xe2\x82\x80\xe2\x82", "\\n\\t",
	}
	for c := 0; c < 0x20; c++ {
		cases = append(cases, string(rune(c)), "a"+string(rune(c))+"z")
	}
	return cases
}

// ntriplesOracle is Term.String as it was written before Term.Append:
// the rendering Append must reproduce, quirk included (a literal is
// escaped rune by rune, turning invalid UTF-8 into U+FFFD, only when it
// holds a character to escape).
func ntriplesOracle(t rdf.Term) string {
	switch t.Kind {
	case rdf.IRI:
		return "<" + t.Value + ">"
	case rdf.Blank:
		return "_:" + t.Value
	case rdf.Literal:
		var sb strings.Builder
		sb.WriteByte('"')
		if !strings.ContainsAny(t.Value, "\"\\\n\r\t") {
			sb.WriteString(t.Value)
		} else {
			for _, r := range t.Value {
				switch r {
				case '"':
					sb.WriteString(`\"`)
				case '\\':
					sb.WriteString(`\\`)
				case '\n':
					sb.WriteString(`\n`)
				case '\r':
					sb.WriteString(`\r`)
				case '\t':
					sb.WriteString(`\t`)
				default:
					sb.WriteRune(r)
				}
			}
		}
		sb.WriteByte('"')
		if t.Lang != "" {
			sb.WriteByte('@')
			sb.WriteString(t.Lang)
		} else if t.Datatype != "" {
			sb.WriteString("^^<")
			sb.WriteString(t.Datatype)
			sb.WriteByte('>')
		}
		return sb.String()
	}
	return "?"
}

// checkEscapers compares the three append forms on s with their
// references, each appended after a prefix the append must keep.
func checkEscapers(t *testing.T, s string) {
	t.Helper()
	const prefix = "p:"
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := appendJSONString([]byte(prefix), s); string(got) != prefix+string(want) {
		t.Errorf("appendJSONString(%q) = %q, json.Marshal = %q", s, got[len(prefix):], want)
	}
	var xb bytes.Buffer
	if err := xml.EscapeText(&xb, []byte(s)); err != nil {
		t.Fatalf("xml.EscapeText(%q): %v", s, err)
	}
	if got := appendXMLText([]byte(prefix), s); string(got) != prefix+xb.String() {
		t.Errorf("appendXMLText(%q) = %q, xml.EscapeText = %q", s, got[len(prefix):], xb.String())
	}
	for _, term := range []rdf.Term{
		rdf.NewIRI(s), rdf.NewBlank(s), rdf.NewLiteral(s),
		rdf.NewLangLiteral(s, "en"), rdf.NewTypedLiteral(s, "http://example.org/dt"),
		rdf.NewTypedLiteral("v", s), rdf.NewLangLiteral("v", s),
	} {
		want := ntriplesOracle(term)
		if got := term.Append([]byte(prefix)); string(got) != prefix+want {
			t.Errorf("%#v.Append = %q, want %q", term, got[len(prefix):], want)
		}
		if got := term.String(); got != want {
			t.Errorf("%#v.String = %q, want %q", term, got, want)
		}
	}
}

// TestEscapersMatchReferences pins the hand-written escapers to the
// installed standard library (JSON, XML) and Term.Append to the former
// Term.String, byte for byte.
func TestEscapersMatchReferences(t *testing.T) {
	for _, s := range escaperCases() {
		checkEscapers(t, s)
	}
}

// FuzzResultEscapers compares the JSON, XML and N-Triples append forms
// with their references on arbitrary strings.
func FuzzResultEscapers(f *testing.F) {
	for _, s := range escaperCases() {
		f.Add(s)
	}
	f.Fuzz(checkEscapers)
}

// countingWriter counts the Write calls it receives.
type countingWriter struct{ writes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestWriterRowAllocs pins the Writer contract: every Row makes exactly
// one Write to the underlying writer, and once the writer's buffer has
// grown to the rows' size, Row allocates nothing.
func TestWriterRowAllocs(t *testing.T) {
	rows := fixtureRows()
	for _, f := range formats {
		var cw countingWriter
		w := NewWriter(f, &cw)
		if err := w.Begin(fixtureVars()); err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			before := cw.writes
			if err := w.Row(r); err != nil {
				t.Fatal(err)
			}
			if got := cw.writes - before; got != 1 {
				t.Errorf("%v: row %d made %d writes, want 1", f, i, got)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, r := range rows {
				if err := w.Row(r); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per pass over the rows, want 0", f, allocs)
		}
	}
}

// TestWriterRowReportsWriteError checks that an error of the underlying
// writer reaches the caller of Row.
func TestWriterRowReportsWriteError(t *testing.T) {
	for _, f := range formats {
		w := NewWriter(f, failWriter{})
		if err := w.Row(fixtureRows()[0]); err != io.ErrClosedPipe {
			t.Errorf("%v: Row error = %v, want %v", f, err, io.ErrClosedPipe)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
