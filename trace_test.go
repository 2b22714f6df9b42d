package lbr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestQueryTraceDifferential pins the tentpole guarantee of the tracing
// layer: a traced execution returns rows byte-identical to (and in the
// same order as) the untraced one, over the route-agreement probes at
// workers {1, 4}.
func TestQueryTraceDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newRouteTestStore(t, workers)
			for _, p := range routeProbes {
				res, err := s.Query(p.q)
				if err != nil {
					t.Fatalf("probe %s untraced: %v", p.id, err)
				}
				traced, root, err := s.QueryTrace(context.Background(), p.q)
				if err != nil {
					t.Fatalf("probe %s traced: %v", p.id, err)
				}
				if res.String() != traced.String() {
					t.Errorf("probe %s: traced rows differ from untraced\nuntraced:\n%s\ntraced:\n%s",
						p.id, res.String(), traced.String())
				}
				if root == nil || root.Name() != "query" {
					t.Fatalf("probe %s: root span = %v", p.id, root)
				}
				if h, ok := root.Attr("query_hash"); !ok || h != trace.QueryHash(p.q) {
					t.Errorf("probe %s: query_hash attr = %v, want %s", p.id, h, trace.QueryHash(p.q))
				}
			}
		})
	}
}

// spanRowsSum adds up the "rows" attributes of the named spans.
func spanRowsSum(sps []*trace.Span) (int, int) {
	total, n := 0, 0
	for _, sp := range sps {
		if v, ok := sp.Attr("rows"); ok {
			total += v.(int)
			n++
		}
	}
	return total, n
}

// TestQueryTraceSpanAccounting checks the trace's row accounting against
// the result for join-only queries (no modifiers that drop or reorder
// rows): the branch span's row count is the result's length.
func TestQueryTraceSpanAccounting(t *testing.T) {
	const q = `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t }`

	t.Run("single-index", func(t *testing.T) {
		s := newRouteTestStore(t, 1)
		res, root, err := s.QueryTrace(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if root.Find("snapshot") == nil {
			t.Error("trace lacks the snapshot span")
		}
		branches := root.FindAll("branch")
		if len(branches) != 1 {
			t.Fatalf("got %d branch spans, want 1", len(branches))
		}
		sum, n := spanRowsSum(branches)
		if n != 1 || sum != res.Len() {
			t.Errorf("branch rows = %d (over %d spans), want %d", sum, n, res.Len())
		}
		for _, name := range []string{"init", "prune", "join", "load", "merge"} {
			if root.Find(name) == nil {
				t.Errorf("trace lacks a %q span", name)
			}
		}
		plans := 0
		for _, c := range branches[0].Children() {
			if c.Name() == "plan" {
				plans++
			}
		}
		if plans != 1 {
			t.Errorf("branch span has %d plan children, want 1", plans)
		}
		// The first read of a text plans it; a repeat takes the plan from
		// the snapshot's memo; a write retires the memo with its snapshot.
		checkPlanCached(t, "first read", root, false)
		if _, root, err = s.QueryTrace(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		checkPlanCached(t, "repeat", root, true)
		if _, err := s.ApplyUpdate(`INSERT DATA { <s0> <linked> <s9> }`); err != nil {
			t.Fatal(err)
		}
		if _, root, err = s.QueryTrace(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		checkPlanCached(t, "after INSERT DATA", root, false)
		for _, ld := range root.FindAll("load") {
			if _, ok := ld.Attr("cache"); !ok {
				t.Error("load span lacks the cache-outcome attr")
			}
			// Every live row holds at least one triple, and every triple
			// sits in a live row.
			lr, _ := ld.Attr("live_rows")
			tr, _ := ld.Attr("triples")
			rows, ok1 := lr.(int)
			triples, ok2 := tr.(int64)
			if !ok1 || !ok2 || rows > int(triples) || (rows == 0) != (triples == 0) {
				t.Errorf("load span live_rows = %v for %v triples", lr, tr)
			}
		}
	})
}

// checkPlanCached requires every plan span under root to carry the cached
// attribute with value want.
func checkPlanCached(t *testing.T, when string, root *trace.Span, want bool) {
	t.Helper()
	plans := root.FindAll("plan")
	if len(plans) == 0 {
		t.Fatalf("%s: trace lacks a plan span", when)
	}
	for _, pl := range plans {
		if got, ok := pl.Attr("cached"); !ok || got != want {
			t.Errorf("%s: plan span cached = %v (set %v), want %v", when, got, ok, want)
		}
	}
}

// nilSpanSink keeps measureNilSpanNs's loop from being optimized away.
var nilSpanSink int

// measureNilSpanNs times one disabled instrumentation site (Child, Set,
// End on a nil span) the way engine call sites execute it when no tracer
// is attached.
func measureNilSpanNs() float64 {
	sp := (*trace.Tracer)(nil).Root()
	const iters = 1 << 21
	start := time.Now()
	n := 0
	for i := 0; i < iters; i++ {
		c := sp.Child("op")
		if c != nil {
			c.Set("i", i)
		}
		c.End()
		n += c.Count()
	}
	nilSpanSink = n
	return float64(time.Since(start).Nanoseconds()) / iters
}

// TestDisabledTracingOverheadBound bounds what an untraced query pays for
// the instrumentation. A query passes about as many guarded sites as its
// traced run records spans, and each costs one nil-span site, so
// spans x nil-span ns must stay under 1% of the untraced median wall time
// for every query of the LUBM suite.
func TestDisabledTracingOverheadBound(t *testing.T) {
	ds, err := bench.BuildLUBM(1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWithOptions(Options{Workers: 2})
	s.LoadGraph(ds.Graph)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	nilNs := measureNilSpanNs()
	for _, spec := range ds.Queries {
		// One discarded warm-up settles the BitMat cache.
		if _, err := s.Query(spec.SPARQL); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		off := make([]time.Duration, 3)
		for i := range off {
			start := time.Now()
			if _, err := s.Query(spec.SPARQL); err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			off[i] = time.Since(start)
		}
		slices.Sort(off)
		_, root, err := s.QueryTrace(context.Background(), spec.SPARQL)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.ID, err)
		}
		pct := float64(root.Count()) * nilNs / float64(off[1].Nanoseconds()) * 100
		t.Logf("%s: %d spans x %.1f ns over %v = %.4f%%", spec.ID, root.Count(), nilNs, off[1], pct)
		if pct >= 1 {
			t.Errorf("%s: disabled-tracing overhead bound %.4f%% exceeds the 1%% budget", spec.ID, pct)
		}
	}
}

// TestQueryTraceChildDurationsNested checks the timing invariant a
// sequential execution must satisfy: at one worker the root's direct
// children run back to back inside it, so their durations sum to at most
// the root's.
func TestQueryTraceChildDurationsNested(t *testing.T) {
	s := newRouteTestStore(t, 1)
	_, root, err := s.QueryTrace(context.Background(), `SELECT * WHERE { ?s <type> ?c . ?s <linked> ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, c := range root.Children() {
		sum += c.Duration()
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration = %v", root.Duration())
	}
	if sum > root.Duration() {
		t.Errorf("children durations sum to %v, exceeding the root's %v", sum, root.Duration())
	}
}

// slowLogStore builds a store whose every query is "slow".
func slowLogStore(t *testing.T, buf *bytes.Buffer) *Store {
	t.Helper()
	s := NewStoreWithOptions(Options{
		Workers:            1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       buf,
	})
	s.AddAll(routeTestTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSlowQueryLogRecords checks the slow-query log line shape on the
// materialized and the streaming query paths: one JSON object per slow
// query carrying the stable hash, duration, row count, and the trace.
func TestSlowQueryLogRecords(t *testing.T) {
	var buf bytes.Buffer
	s := slowLogStore(t, &buf)
	const q = `SELECT * WHERE { ?s <type> ?c }`

	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if err := s.QueryStreamRowsObserved(context.Background(), q, nil, nil, func(vars []string, row []Term) bool {
		if row != nil { // the first callback is the header
			streamed++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != res.Len() {
		t.Fatalf("streamed %d rows, Query returned %d", streamed, res.Len())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d slow-log lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var rec struct {
			Time       string          `json:"time"`
			QueryHash  string          `json:"query_hash"`
			DurationMS float64         `json:"duration_ms"`
			Rows       int             `json:"rows"`
			Query      string          `json:"query"`
			Trace      *trace.SpanJSON `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if rec.QueryHash != trace.QueryHash(q) {
			t.Errorf("line %d: query_hash = %q, want %q", i, rec.QueryHash, trace.QueryHash(q))
		}
		if rec.Rows != res.Len() {
			t.Errorf("line %d: rows = %d, want %d", i, rec.Rows, res.Len())
		}
		if rec.Query != q {
			t.Errorf("line %d: query = %q", i, rec.Query)
		}
		if rec.Trace == nil || rec.Trace.Name != "query" {
			t.Errorf("line %d: trace = %+v", i, rec.Trace)
		}
		if rec.DurationMS < 0 || rec.Time == "" {
			t.Errorf("line %d: duration/time missing: %s", i, line)
		}
	}
}

// TestSlowQueryLogStreamedRows checks that a slow-log line written by the
// streaming route counts the rows delivered to the caller: a branch whose
// OPTIONAL filter makes it collect for best-match before replaying, and an
// OFFSET that skips rows before the LIMIT cuts the stream.
func TestSlowQueryLogStreamedRows(t *testing.T) {
	var buf bytes.Buffer
	s := NewStoreWithOptions(Options{
		Workers:            1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	s.AddAll([]Triple{
		TripleIRI("a", "p", "b"), TripleIRI("b", "q", "c"),
		TripleIRI("d", "p", "e"), TripleIRI("e", "q", "f"),
		TripleIRI("g", "p", "h"),
	})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		rows int
	}{
		{`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z FILTER(?z != <c>) } }`, 3},
		{`SELECT * WHERE { ?x <p> ?y } OFFSET 1 LIMIT 1`, 1},
	} {
		buf.Reset()
		delivered := 0
		if err := s.QueryStreamRowsObserved(context.Background(), c.q, nil, nil, func(vars []string, row []Term) bool {
			if row != nil {
				delivered++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if delivered != c.rows {
			t.Fatalf("%s: delivered %d rows, want %d", c.q, delivered, c.rows)
		}
		var rec struct {
			Rows int `json:"rows"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
			t.Fatalf("%s: %v\n%s", c.q, err, buf.String())
		}
		if rec.Rows != c.rows {
			t.Errorf("%s: slow log rows = %d, want the %d delivered", c.q, rec.Rows, c.rows)
		}
	}
}

// TestSlowQueryLogAsk checks that AskContext feeds the slow-query log
// like the row routes: exactly one line, carrying the query hash, one row
// for a pattern with a solution, and the probe's trace.
func TestSlowQueryLogAsk(t *testing.T) {
	var buf bytes.Buffer
	s := slowLogStore(t, &buf)
	const q = `ASK { ?s <type> <class0> }`
	if found, err := s.AskContext(context.Background(), q, nil); err != nil || !found {
		t.Fatalf("AskContext = %v, %v; want true", found, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d slow-log lines, want 1:\n%s", len(lines), buf.String())
	}
	var rec struct {
		QueryHash string          `json:"query_hash"`
		Rows      int             `json:"rows"`
		Trace     *trace.SpanJSON `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("%v\n%s", err, lines[0])
	}
	if rec.QueryHash != trace.QueryHash(q) {
		t.Errorf("query_hash = %q, want %q", rec.QueryHash, trace.QueryHash(q))
	}
	if rec.Rows != 1 {
		t.Errorf("rows = %d, want 1", rec.Rows)
	}
	if rec.Trace == nil || rec.Trace.Name != "query" || rec.Trace.Attrs["query_hash"] != rec.QueryHash {
		t.Fatalf("trace = %+v, want the query root carrying the hash", rec.Trace)
	}
	for _, name := range []string{"snapshot", "branch"} {
		if !hasSpan(rec.Trace, name) {
			t.Errorf("trace lacks a %q span: %s", name, lines[0])
		}
	}
}

// hasSpan reports whether the span tree under s holds a span named name.
func hasSpan(s *trace.SpanJSON, name string) bool {
	if s.Name == name {
		return true
	}
	for i := range s.Children {
		if hasSpan(&s.Children[i], name) {
			return true
		}
	}
	return false
}

// TestSlowQueryLogErrorLine checks that a failing query still logs, with
// rows -1 and the error recorded.
func TestSlowQueryLogErrorLine(t *testing.T) {
	var buf bytes.Buffer
	s := slowLogStore(t, &buf)
	if _, err := s.Query(`SELECT * WHERE { broken`); err == nil {
		t.Fatal("expected a parse error")
	}
	line := strings.TrimSpace(buf.String())
	var rec struct {
		Rows  int    `json:"rows"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("%v\n%s", err, line)
	}
	if rec.Rows != -1 || rec.Error == "" {
		t.Errorf("error line = %s", line)
	}
}

// TestSlowQueryLogThreshold checks that a generous threshold keeps the
// log silent and a disabled log costs the query path nothing observable.
func TestSlowQueryLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	s := NewStoreWithOptions(Options{
		Workers:            1,
		SlowQueryThreshold: time.Hour,
		SlowQueryLog:       &buf,
	})
	s.AddAll(routeTestTriples())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT * WHERE { ?s <type> ?c }`); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("slow log written below threshold: %s", buf.String())
	}
}

// TestQueryTraceErrorReturnsSpan checks the EXPLAIN contract on errors:
// the span tree (covering the work up to the failure) comes back with
// the error.
func TestQueryTraceErrorReturnsSpan(t *testing.T) {
	s := newRouteTestStore(t, 1)
	_, root, err := s.QueryTrace(context.Background(), `SELECT * WHERE { broken`)
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if root == nil || root.Name() != "query" {
		t.Fatalf("root span = %v", root)
	}
}
