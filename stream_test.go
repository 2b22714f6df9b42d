package lbr

import (
	"context"
	"testing"
)

// TestQueryStreamRowsHeaderAndAlignment pins the QueryStreamRowsObserved contract:
// fn is first called with a nil row carrying the header, then once per
// solution with the row aligned to vars — unbound OPTIONAL variables as
// zero Terms, never shorter rows.
func TestQueryStreamRowsHeaderAndAlignment(t *testing.T) {
	s := movieStore(t)
	var headerVars []string
	var rows [][]Term
	calls := 0
	err := s.QueryStreamRowsObserved(context.Background(), movieQ2, nil, nil, func(vars []string, row []Term) bool {
		calls++
		if row == nil {
			if calls != 1 {
				t.Errorf("header call arrived at position %d, want 1", calls)
			}
			headerVars = append([]string(nil), vars...)
			return true
		}
		r := append([]Term(nil), row...)
		rows = append(rows, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(headerVars) != 2 || headerVars[0] != "friend" || headerVars[1] != "sitcom" {
		t.Fatalf("header vars = %v", headerVars)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	sawNull := false
	for _, r := range rows {
		if len(r) != len(headerVars) {
			t.Fatalf("row %v not aligned with vars %v", r, headerVars)
		}
		if r[0].Value == "Larry" {
			if !r[1].IsZero() {
				t.Errorf("Larry's sitcom should be a zero Term, got %v", r[1])
			}
			sawNull = true
		}
	}
	if !sawNull {
		t.Error("no NULL row streamed")
	}
}

// TestQueryStreamRowsZeroRows: the header still arrives when the query has
// no solutions, so serializers can emit a complete empty document.
func TestQueryStreamRowsZeroRows(t *testing.T) {
	s := movieStore(t)
	headerSeen := false
	rows := 0
	err := s.QueryStreamRowsObserved(context.Background(),
		`SELECT * WHERE { <Nobody> <hasFriend> ?x . }`, nil, nil,
		func(vars []string, row []Term) bool {
			if row == nil {
				headerSeen = true
				if len(vars) != 1 || vars[0] != "x" {
					t.Errorf("vars = %v", vars)
				}
				return true
			}
			rows++
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if !headerSeen || rows != 0 {
		t.Errorf("headerSeen=%v rows=%d", headerSeen, rows)
	}
}

// TestQueryStreamRowsProjectionOrder: an explicit SELECT clause dictates
// the column order even though projected queries materialize internally.
func TestQueryStreamRowsProjectionOrder(t *testing.T) {
	s := movieStore(t)
	q := `SELECT ?sitcom ?friend WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . } }`
	var headerVars []string
	rows := 0
	err := s.QueryStreamRowsObserved(context.Background(), q, nil, nil, func(vars []string, row []Term) bool {
		if row == nil {
			headerVars = append([]string(nil), vars...)
			return true
		}
		rows++
		if len(row) != 2 {
			t.Errorf("row %v not aligned", row)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(headerVars) != 2 || headerVars[0] != "sitcom" || headerVars[1] != "friend" {
		t.Fatalf("projected vars = %v, want [sitcom friend]", headerVars)
	}
	if rows != 2 {
		t.Errorf("rows = %d, want 2", rows)
	}
}

// TestQueryStreamRowsMatchesQuery pins that streaming and materialized
// execution agree row for row — including the solution modifiers and
// cheap FILTER substitution the stream route must either apply inline
// (LIMIT/OFFSET, FILTER) or leave to the collect route (ORDER BY), and
// never silently drop.
func TestQueryStreamRowsMatchesQuery(t *testing.T) {
	s := movieStore(t)
	queries := []string{
		`SELECT * WHERE { ?a <actedIn> ?b . }`,
		`SELECT * WHERE { ?a <actedIn> ?b . } ORDER BY ?b`,
		`SELECT * WHERE { ?a <actedIn> ?b . } ORDER BY ?b LIMIT 2`,
		`SELECT * WHERE { ?a <actedIn> ?b . } LIMIT 2`,
		`SELECT * WHERE { ?a <actedIn> ?b . } LIMIT 0`,
		`SELECT * WHERE { ?a <actedIn> ?b . } OFFSET 2`,
		`SELECT * WHERE { ?a <actedIn> ?b . } LIMIT 2 OFFSET 1`,
		`SELECT * WHERE { <Jerry> <hasFriend> ?f . FILTER(?f = <Julia>) }`,
		`SELECT * WHERE { ?s ?p ?o . } LIMIT 3`,
		movieQ2,
	}
	for _, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := ""
		for _, row := range res.Rows() {
			for _, term := range row {
				want += term.String() + "|"
			}
			want += "\n"
		}
		got := ""
		err = s.QueryStreamRowsObserved(context.Background(), q, nil, nil, func(vars []string, row []Term) bool {
			if row == nil {
				if len(vars) != len(res.Vars) {
					t.Errorf("%s: streamed vars %v, want %v", q, vars, res.Vars)
				}
				return true
			}
			for _, term := range row {
				got += term.String() + "|"
			}
			got += "\n"
			return true
		})
		if err != nil {
			t.Fatalf("%s: stream: %v", q, err)
		}
		if got != want {
			t.Errorf("%s:\nstreamed %q\nwant     %q", q, got, want)
		}
	}
}

// TestQueryStreamRowsEarlyStop: returning false from the header call (or a
// row call) ends the enumeration without error.
func TestQueryStreamRowsEarlyStop(t *testing.T) {
	s := movieStore(t)
	calls := 0
	err := s.QueryStreamRowsObserved(context.Background(), movieQ2, nil, nil, func(_ []string, _ []Term) bool {
		calls++
		return false
	})
	if err != nil || calls != 1 {
		t.Errorf("err=%v calls=%d, want nil/1", err, calls)
	}
}

// TestQueryStreamRowsCancelled: a dead context yields ctx.Err() before fn
// ever runs.
func TestQueryStreamRowsCancelled(t *testing.T) {
	s := movieStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := s.QueryStreamRowsObserved(ctx, movieQ2, nil, nil, func([]string, []Term) bool {
		called = true
		return true
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn was called under a cancelled context")
	}
}

// TestAskIgnoresSolutionModifiers pins Ask's documented contract: it
// checks whether the WHERE pattern has a solution, stopping at the first
// one — ORDER BY must not force materialization and LIMIT 0/OFFSET must
// not make a satisfiable pattern look empty.
func TestAskIgnoresSolutionModifiers(t *testing.T) {
	s := movieStore(t)
	for _, q := range []string{
		`SELECT * WHERE { ?a <actedIn> ?b . } LIMIT 0`,
		`SELECT * WHERE { ?a <actedIn> ?b . } ORDER BY ?b LIMIT 1`,
		`SELECT * WHERE { ?a <actedIn> ?b . } OFFSET 100`,
	} {
		ok, err := s.Ask(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
		} else if !ok {
			t.Errorf("%s: Ask = false for a satisfiable pattern", q)
		}
	}
}

// TestAskContextCancelled: AskContext honors a dead context.
func TestAskContextCancelled(t *testing.T) {
	s := movieStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AskContext(ctx, `ASK { <Jerry> <hasFriend> ?x . }`, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// And still answers when the context is live.
	ok, err := s.AskContext(context.Background(), `ASK { <Jerry> <hasFriend> ?x . }`, nil)
	if err != nil || !ok {
		t.Errorf("ok=%v err=%v", ok, err)
	}
}

// TestResultRowsAndIterateAsymmetry pins the documented asymmetry: Rows
// (like Row and String) keeps column order with explicit zero-Term cells,
// while Iterate's maps omit unbound variables entirely.
func TestResultRowsAndIterateAsymmetry(t *testing.T) {
	s := movieStore(t)
	res, err := s.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != res.Len() {
		t.Fatalf("Rows() len = %d, want %d", len(rows), res.Len())
	}
	nullRows := 0
	for i, r := range rows {
		if len(r) != len(res.Vars) {
			t.Fatalf("row %d misaligned: %v vs vars %v", i, r, res.Vars)
		}
		for j := range r {
			if r[j] != res.Row(i)[j] {
				t.Fatalf("Rows()[%d] disagrees with Row(%d)", i, i)
			}
		}
		if r[1].IsZero() {
			nullRows++
		}
	}
	if nullRows != 1 {
		t.Fatalf("null rows = %d, want 1", nullRows)
	}
	// Iterate omits the unbound column; exactly one map is short.
	short := 0
	res.Iterate(func(m map[string]Term) bool {
		if len(m) < len(res.Vars) {
			short++
			if _, bound := m["sitcom"]; bound {
				t.Error("unbound sitcom present in Iterate map")
			}
		}
		return true
	})
	if short != 1 {
		t.Errorf("short maps = %d, want 1", short)
	}
}
