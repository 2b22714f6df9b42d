// Package results serializes SPARQL query results in the W3C interchange
// formats — SPARQL 1.1 Query Results JSON, XML, CSV, and TSV — streaming
// row by row so a SELECT over millions of solutions serializes in constant
// memory. Unbound variables produced by OPTIONAL patterns are rendered in
// each format's native way (absent binding in JSON/XML, empty field in
// CSV/TSV), and ASK queries serialize as boolean documents.
package results

import (
	"fmt"
	"io"

	"repro/internal/rdf"
)

// Format identifies one of the supported result serializations.
type Format int

const (
	// JSON is SPARQL 1.1 Query Results JSON (application/sparql-results+json).
	JSON Format = iota
	// XML is SPARQL Query Results XML (application/sparql-results+xml).
	XML
	// CSV is the SPARQL 1.1 CSV results format (text/csv): raw lexical
	// values, RFC 4180 quoting, CRLF row terminators.
	CSV
	// TSV is the SPARQL 1.1 TSV results format
	// (text/tab-separated-values): terms in SPARQL/Turtle syntax.
	TSV
)

// String names the format for logs and metrics.
func (f Format) String() string {
	switch f {
	case JSON:
		return "json"
	case XML:
		return "xml"
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ContentType returns the media type a server should set for the format.
func (f Format) ContentType() string {
	switch f {
	case JSON:
		return "application/sparql-results+json"
	case XML:
		return "application/sparql-results+xml"
	case CSV:
		return "text/csv; charset=utf-8"
	case TSV:
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/octet-stream"
}

// Writer streams one result document to an underlying io.Writer.
//
// For a SELECT result the call sequence is Begin (exactly once, with the
// result header in column order), then Row once per solution — each row
// aligned with the Begin vars, zero Terms marking unbound OPTIONAL
// variables — then End. Rows are written as they arrive; nothing is
// buffered beyond the current row, so the consumer controls memory.
//
// Each Row appends the whole row into one buffer the Writer reuses and
// calls the underlying Write exactly once, with the complete row; so do
// Begin (the header) and End (the trailer, when the format has one). A
// consumer that records or frames what it is given (the server's result
// cache, a gzip stream) thus sees one call per row, and after the first
// rows a Row allocates nothing.
//
// For an ASK result, Boolean writes the complete document by itself;
// Begin/Row/End must not be used on the same Writer.
type Writer interface {
	Begin(vars []string) error
	Row(row []rdf.Term) error
	End() error
	Boolean(b bool) error
}

// NewWriter returns a streaming serializer for the format writing to w.
// The Writer holds at most the current row and does not close w; wrap w
// in a bufio.Writer when syscall-sized writes matter.
func NewWriter(f Format, w io.Writer) Writer {
	switch f {
	case XML:
		return &xmlWriter{rowBuf: rowBuf{w: w}}
	case CSV:
		return &csvWriter{rowBuf: rowBuf{w: w}}
	case TSV:
		return &tsvWriter{rowBuf: rowBuf{w: w}}
	default:
		return &jsonWriter{rowBuf: rowBuf{w: w}}
	}
}

// rowBuf is the one buffer a writer appends the header, and then each
// row, into before handing it to the underlying writer in a single Write.
// The buffer is reused, so after the first rows a writer allocates
// nothing.
type rowBuf struct {
	w   io.Writer
	buf []byte
}

// write keeps b, which extends buf[:0], as the buffer for the next piece
// and writes it to w.
func (o *rowBuf) write(b []byte) error {
	o.buf = b
	_, err := o.w.Write(b)
	return err
}
