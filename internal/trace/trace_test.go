package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := New("query")
	root := tr.Root()
	if root == nil || root.Name() != "query" {
		t.Fatalf("root = %v", root)
	}
	b := root.Child("branch")
	b.Set("rows", 7)
	b.Set("dur", 1500*time.Microsecond)
	c := b.Child("prune")
	c.End()
	b.End()
	sp := tr.Finish()
	if sp != root {
		t.Fatalf("Finish returned %p, want root %p", sp, root)
	}
	if got := root.Find("prune"); got != c {
		t.Fatalf("Find(prune) = %v", got)
	}
	if n := root.Count(); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
	if v, ok := b.Attr("rows"); !ok || v != 7 {
		t.Fatalf("Attr(rows) = %v, %v", v, ok)
	}
	if v, ok := b.Attr("dur"); !ok || v.(float64) != 1.5 {
		t.Fatalf("Attr(dur) = %v, %v (want 1.5 ms)", v, ok)
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration = %v", root.Duration())
	}
	raw, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var v SpanJSON
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Name != "query" || len(v.Children) != 1 || v.Children[0].Name != "branch" {
		t.Fatalf("bad JSON tree: %s", raw)
	}
	if v.Children[0].Attrs["rows"] != float64(7) {
		t.Fatalf("bad attrs: %v", v.Children[0].Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Root() != nil || tr.Finish() != nil {
		t.Fatal("nil tracer must yield nil spans")
	}
	var sp *Span
	c := sp.Child("x")
	if c != nil {
		t.Fatal("nil span Child must return nil")
	}
	c.Set("k", 1)
	c.End()
	if sp.Name() != "" || sp.Duration() != 0 || sp.Count() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	if sp.Find("x") != nil || sp.Children() != nil || sp.Snapshot() != nil {
		t.Fatal("nil span lookups must return nil")
	}
	raw, err := json.Marshal(sp)
	if err != nil || string(raw) != "null" {
		t.Fatalf("nil span JSON = %q, %v", raw, err)
	}
}

// TestNilTracerAllocFree pins the tentpole's allocation-free guarantee:
// a full disabled span site — Child, Set with a small constant, End —
// must not allocate when no tracer is attached.
func TestNilTracerAllocFree(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := sp.Child("load")
		c.Set("triples", 1)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span site allocates %v times per op, want 0", allocs)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New("query")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("branch")
				c.Set("branch", i)
				c.End()
			}
		}(i)
	}
	wg.Wait()
	tr.Finish()
	if got := len(root.FindAll("branch")); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestQueryHash(t *testing.T) {
	a := QueryHash("SELECT * WHERE { ?s ?p ?o . }")
	b := QueryHash("  SELECT *\n\tWHERE  { ?s ?p ?o . }\n")
	if a != b {
		t.Fatalf("whitespace-normalized hashes differ: %s vs %s", a, b)
	}
	if c := QueryHash("SELECT ?s WHERE { ?s ?p ?o . }"); c == a {
		t.Fatalf("distinct queries collide: %s", c)
	}
	if len(a) != 16 {
		t.Fatalf("hash %q not 16 hex digits", a)
	}
}

// BenchmarkNilSpanSite measures the per-site cost of disabled tracing —
// the number the trace bench table scales by call-site count to bound
// tracer-disabled overhead.
func BenchmarkNilSpanSite(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sp.Child("load")
		c.Set("triples", 1)
		c.End()
	}
}
