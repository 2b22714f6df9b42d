package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// memoQueries extends determinismQueries with the shapes whose Prepared
// carries more than one plan or a derived form: UNION and full-scan
// branches, a cheap and a row filter, solution modifiers, and an ASK.
var memoQueries = append(append([]string(nil), determinismQueries...),
	`SELECT * WHERE { { ?x <mail> ?m . } UNION { ?x <tel> ?m . } }`,
	`SELECT * WHERE { ?x <type> <Person> . OPTIONAL { ?x ?p ?o . } }`,
	`SELECT * WHERE { ?x <knows> ?y . FILTER (?y = <p010>) }`,
	`SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?y <mail> ?m . FILTER (?m != <mailp003>) } }`,
	`SELECT DISTINCT ?y WHERE { ?x <knows> ?y . ?x <tel> ?t . } ORDER BY ?y OFFSET 3 LIMIT 20`,
	`ASK { ?x <author> ?y . ?y <mail> ?m . }`,
)

// uncachedRows runs src on a fresh engine without the memo, on the
// collect route.
func uncachedRows(t *testing.T, e *Engine, src string) (*Result, []string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(e.idx, e.opts)
	res, err := cold.Execute(context.Background(), cold.Prepare(q), nil)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res, difftest.Exact(res.Terms())
}

// TestQueryMemoColdConcurrent runs each query text from eight goroutines
// at once on an engine whose memo has never seen it, half of them on the
// collect route and half streaming, then once more from the memo. Every
// execution must return the rows, row order and counts of an engine that
// prepared and planned the query itself.
func TestQueryMemoColdConcurrent(t *testing.T) {
	forceParallel(t)
	idx := indexOf(t, chainGraph())
	for qi, src := range memoQueries {
		e := New(idx, Options{Workers: 2})
		want, wantRows := uncachedRows(t, e, src)
		var wg sync.WaitGroup
		errs := make([]string, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = runMemoized(e, src, g%2 == 1, want, wantRows)
			}()
		}
		wg.Wait()
		errs = append(errs, runMemoized(e, src, false, want, wantRows))
		for g, msg := range errs {
			if msg != "" {
				t.Errorf("q%d goroutine %d: %s", qi, g, msg)
			}
		}
		if n := e.MemoEntries(); n != 1 {
			t.Errorf("q%d: memo holds %d entries, want 1", qi, n)
		}
	}
}

// runMemoized executes src through the engine's memo, on the collect
// route or streamed and then as an ASK probe, and describes how its rows
// or counts differ from want (empty when they agree).
func runMemoized(e *Engine, src string, stream bool, want *Result, wantRows []string) string {
	p, _, err := e.PrepareText(src)
	if err != nil {
		return err.Error()
	}
	if !stream {
		res, err := e.Execute(context.Background(), p, nil)
		if err != nil {
			return err.Error()
		}
		if v := difftest.Verdict(difftest.Exact(res.Terms()), wantRows); v != "" {
			return v
		}
		if got, want := countsOf(res.Stats), countsOf(want.Stats); got != want {
			return fmt.Sprintf("stats %+v, want %+v", got, want)
		}
		return ""
	}
	var cells *Cells
	var rows [][]rdf.Term
	err = e.ExecuteStream(context.Background(), p, func(_ []sparql.Var, c *Cells) bool {
		cells = c
		return true
	}, func(_ []sparql.Var, row Row) bool {
		rows = append(rows, cells.Resolve(row, make([]rdf.Term, len(row))))
		return true
	}, nil, nil)
	if err != nil {
		return err.Error()
	}
	if v := difftest.Verdict(difftest.Exact(rows), wantRows); v != "" {
		return v
	}
	// The ASK probe derives from the same Prepared and shares its plans.
	if found, err := e.AskContext(context.Background(), p, nil); err != nil || found != (len(want.Rows) > 0) {
		return fmt.Sprintf("AskContext = %v, %v for %d rows", found, err, len(want.Rows))
	}
	return ""
}

// countsOf is Stats without its durations.
func countsOf(st Stats) Stats {
	return Stats{InitialTriples: st.InitialTriples, AfterPruning: st.AfterPruning, Results: st.Results,
		NullResults: st.NullResults, BestMatch: st.BestMatch, EmptyShortcut: st.EmptyShortcut}
}

// TestQueryMemoWorkersIdentical requires memo hits to return byte-identical
// rows at every worker count: each text runs once to fill the memo and
// twice from it, and every run must match the sequential uncached one.
func TestQueryMemoWorkersIdentical(t *testing.T) {
	forceParallel(t)
	idx := indexOf(t, chainGraph())
	for _, workers := range []int{1, 2, 4, 8} {
		e := New(idx, Options{Workers: workers})
		for qi, src := range memoQueries {
			want, wantRows := uncachedRows(t, New(idx, Options{Workers: 1}), src)
			for run := 0; run < 3; run++ {
				if msg := runMemoized(e, src, run == 2, want, wantRows); msg != "" {
					t.Errorf("workers=%d q%d run %d: %s", workers, qi, run, msg)
				}
			}
		}
	}
}

// TestQueryMemoBound feeds ten times the memo's entry bound of distinct
// texts through one engine, short ones that meet the entry bound first
// and 2 KiB ones that meet the weight budget first: the memo must stay
// within both, keep its weight account exact, and serve a text it still
// holds from the memo.
func TestQueryMemoBound(t *testing.T) {
	for _, pad := range []int{0, 2 << 10} {
		e := New(indexOf(t, chainGraph()), Options{})
		text := func(i int) string {
			src := fmt.Sprintf(`SELECT * WHERE { <p%03d> <knows> ?y%d . }`, i%300, i)
			return src + strings.Repeat(" ", max(0, pad-len(src)))
		}
		for i := 0; i < 10*memoEntries; i++ {
			if _, hit, err := e.PrepareText(text(i)); err != nil || hit {
				t.Fatalf("pad %d, text %d: hit=%v err=%v", pad, i, hit, err)
			}
			if n, w := e.MemoEntries(), e.memo.weight; n > memoEntries || w > memoBudget {
				t.Fatalf("pad %d: after %d texts the memo holds %d entries of weight %d, bounds %d and %d", pad, i+1, n, w, memoEntries, memoBudget)
			}
		}
		sum := 0
		for k, p := range e.memo.m {
			sum += memoWeight(k, p)
		}
		if sum != e.memo.weight {
			t.Errorf("pad %d: memo weight %d, its entries weigh %d", pad, e.memo.weight, sum)
		}
		if want := min(memoEntries, memoBudget/len(text(0))); e.MemoEntries() != want {
			t.Errorf("pad %d: memo holds %d entries after %d texts, want %d", pad, e.MemoEntries(), 10*memoEntries, want)
		}
		if _, hit, _ := e.PrepareText(text(10*memoEntries - 1)); !hit {
			t.Errorf("pad %d: the last text admitted was not served from the memo", pad)
		}
	}
}

// TestQueryMemoHitAllocs pins that a memo hit allocates nothing: the
// lookup is the whole prologue of a repeated text.
func TestQueryMemoHitAllocs(t *testing.T) {
	e := New(indexOf(t, chainGraph()), Options{})
	src := determinismQueries[3]
	if _, hit, err := e.PrepareText(src); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, hit, _ := e.PrepareText(src); !hit {
			t.Fatal("repeated text missed the memo")
		}
	}); allocs != 0 {
		t.Errorf("a memo hit allocates %.1f times, want 0", allocs)
	}
}

// TestQueryMemoAdmission feeds ten times the memo's bound of texts it
// must not keep — malformed ones, single-branch ones longer than
// memoMaxWeight, and short full-scan ones whose branches push them over
// it — and requires the memo to stay empty while every well-formed one
// still prepares and runs.
func TestQueryMemoAdmission(t *testing.T) {
	e := New(indexOf(t, chainGraph()), Options{})
	long := strings.Repeat(" ", memoMaxWeight)
	scan := strings.Repeat(" ", memoMaxWeight/5) // ?s ?p ?o: five predicates
	for i := 0; i < 10*memoEntries; i++ {
		var src string
		switch i % 3 {
		case 0:
			src = fmt.Sprintf(`SELECT * WHERE { <p%04d> <knows> `, i)
		case 1:
			src = fmt.Sprintf(`SELECT * WHERE { <p%03d> <knows> ?y . }%s`, i%300, long)
		case 2:
			src = fmt.Sprintf(`SELECT * WHERE { <p%03d> ?p ?o . ?s ?q ?r . }%s`, i%300, scan)
		}
		p, hit, err := e.PrepareText(src)
		if hit || (err == nil) == (i%3 == 0) {
			t.Fatalf("text %d: hit=%v err=%v", i, hit, err)
		}
		if i < 6 && err == nil {
			if _, err := e.Execute(context.Background(), p, nil); err != nil {
				t.Fatalf("text %d: %v", i, err)
			}
		}
		if n := e.MemoEntries(); n != 0 {
			t.Fatalf("after text %d the memo holds %d entries, want 0", i, n)
		}
	}
}

// BenchmarkQueryPrologue runs a selective query from a memo hit (parse,
// UNF rewrite and plan skipped) and on first touch (a fresh engine over
// the same index, as after a write, which prepares and plans it), so the
// difference is the prologue the memo saves. "empty" is a memo hit of a
// query whose last absolute-master pattern has count 0: its plan decides
// it empty, so it loads nothing.
func BenchmarkQueryPrologue(b *testing.B) {
	idx := indexOf(b, chainGraph())
	const (
		src   = `SELECT * WHERE { <p003> <knows> ?y . OPTIONAL { ?y <mail> ?m . } OPTIONAL { ?y <tel> ?t . } }`
		empty = `SELECT * WHERE { ?x <knows> ?y . ?y <type> <Person> . ?y <mail> <Person> . OPTIONAL { ?y <tel> ?t . } }`
	)
	b.Run("hit", func(b *testing.B) {
		e := New(idx, Options{Workers: 1})
		runText(b, e, src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runText(b, e, src)
		}
	})
	b.Run("first-touch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runText(b, New(idx, Options{Workers: 1}), src)
		}
	})
	b.Run("empty", func(b *testing.B) {
		e := New(idx, Options{Workers: 1})
		runText(b, e, empty)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := runText(b, e, empty); !res.Stats.EmptyShortcut {
				b.Fatal("the empty query ran past its plan")
			}
		}
	})
}

// runText executes query text src from e's memo on the collect route.
func runText(b *testing.B, e *Engine, src string) *Result {
	p, _, err := e.PrepareText(src)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Execute(context.Background(), p, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}
