package results

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/rdf"
)

// benchRows is n five-column rows shaped like a dashboard result: an IRI,
// a plain literal that every tenth row fills with characters every format
// escapes, a language-tagged literal unbound in every seventh row, a
// typed literal, and a blank node unbound in every third.
func benchRows(n int) [][]rdf.Term {
	rows := make([][]rdf.Term, n)
	for i := range rows {
		name := fmt.Sprintf("name %d", i)
		if i%10 == 0 {
			name = fmt.Sprintf("he said \"hi\" %d,\n<b>&amp;</b>\ttab", i)
		}
		row := []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://example.org/resource/%d", i)),
			rdf.NewLiteral(name),
			rdf.NewLangLiteral(fmt.Sprintf("label %d", i), "en"),
			rdf.NewTypedLiteral(fmt.Sprint(i*37), "http://www.w3.org/2001/XMLSchema#integer"),
			rdf.NewBlank(fmt.Sprintf("b%d", i)),
		}
		if i%7 == 0 {
			row[2] = rdf.Term{}
		}
		if i%3 == 0 {
			row[4] = rdf.Term{}
		}
		rows[i] = row
	}
	return rows
}

// BenchmarkWriterRow serializes a 5 000-row document per iteration in
// each format and reports the cost per row.
func BenchmarkWriterRow(b *testing.B) {
	rows := benchRows(5000)
	vars := []string{"s", "name", "label", "n", "node"}
	for _, f := range formats {
		b.Run(f.String(), func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := NewWriter(f, io.Discard)
				if err := w.Begin(vars); err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if err := w.Row(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.End(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(b.N * len(rows))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/row")
		})
	}
}
