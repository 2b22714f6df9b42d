package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	lbr "repro"
)

// literalStore extends the movie fixture with literal objects so regex
// and numeric filters have data to match.
func literalStore(t testing.TB) *lbr.Store {
	t.Helper()
	s := lbr.NewStore()
	for _, tr := range [][3]string{
		{"Julia", "actedIn", "Seinfeld"},
		{"Julia", "actedIn", "Veep"},
		{"Larry", "actedIn", "CurbYourEnthu"},
		{"Jerry", "hasFriend", "Julia"},
		{"Jerry", "hasFriend", "Larry"},
		{"Seinfeld", "location", "NewYorkCity"},
		{"Veep", "location", "D.C."},
		{"CurbYourEnthu", "location", "LosAngeles"},
	} {
		s.Add(lbr.TripleIRI(tr[0], tr[1], tr[2]))
	}
	for _, tr := range [][3]string{
		{"Seinfeld", "tagline", "a show about nothing"},
		{"Veep", "tagline", "politics"},
		{"CurbYourEnthu", "tagline", "pretty good"},
	} {
		s.Add(lbr.TripleLit(tr[0], tr[1], tr[2]))
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newLiteralServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := New(literalStore(t), Config{Log: func(string, ...any) {}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestUnsupportedFilter400 pins the structured rejection of the residue
// outside the supported filter core: a variable bound elsewhere in the
// branch but outside the filter's syntactic scope. Before the general
// evaluator landed this surfaced as an opaque 500 query_failed; now it is
// a 400 naming the offending expression.
func TestUnsupportedFilter400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			?friend <actedIn> ?sitcom .
			OPTIONAL { ?sitcom <location> ?loc . FILTER (?friend = <Julia>) } }`
	resp, body := get(t, ts, q, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "unsupported_filter" {
		t.Errorf("error code = %q, want unsupported_filter: %s", code, body)
	}
	var doc struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	// The message must carry the offending variable and expression so the
	// client can fix the query without guessing.
	if !strings.Contains(doc.Error.Message, "?friend") ||
		!strings.Contains(doc.Error.Message, "FILTER(") {
		t.Errorf("message %q should name the variable and the expression", doc.Error.Message)
	}
}

// TestUnsupportedQuery400 pins the rejection of the other query classes
// the engine refuses by design (engine.Unsupported): a join on the
// predicate position is the client's query outside the supported surface,
// so it is a 400 unsupported_query, not a 500.
func TestUnsupportedQuery400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		`SELECT * WHERE { ?a ?p ?b . ?b ?p ?c . }`,
		`ASK { ?a ?p ?b . ?b ?p ?c . }`,
	} {
		resp, body := get(t, ts, q, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", q, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "unsupported_query" {
			t.Errorf("%s: error code = %q, want unsupported_query: %s", q, code, body)
		}
	}
}

func filterRows(t *testing.T, ts *httptest.Server, query string) int {
	t.Helper()
	resp, body := get(t, ts, query, "application/sparql-results+json")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return len(doc.Results.Bindings)
}

// TestSupportedFilterCore200 exercises shapes the engine used to bounce:
// regex, arithmetic, and a filter over a variable no pattern binds.
func TestSupportedFilterCore200(t *testing.T) {
	ts := newLiteralServer(t)
	cases := []struct {
		name, query string
		wantRows    int
	}{
		{"regex", `
			SELECT * WHERE {
				?sitcom <tagline> ?tag .
				FILTER (regex(?tag, "^a SHOW", "i")) }`, 1}, // Seinfeld
		{"regex-on-iri-errors", `
			SELECT * WHERE {
				<Jerry> <hasFriend> ?friend .
				FILTER (regex(?friend, ".")) }`, 0}, // IRIs are not strings
		{"arithmetic", `
			SELECT * WHERE {
				<Jerry> <hasFriend> ?friend .
				FILTER (1 + 1 = 2 * 1) }`, 2},
		{"nowhere-var", `
			SELECT * WHERE {
				<Jerry> <hasFriend> ?friend .
				FILTER (bound(?nobody) || ?friend != <Larry>) }`, 1},
		{"iri-ordering", `
			SELECT * WHERE {
				<Jerry> <hasFriend> ?friend .
				FILTER (?friend < <Larry>) }`, 1}, // Julia
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := filterRows(t, ts, c.query); got != c.wantRows {
				t.Errorf("rows = %d, want %d", got, c.wantRows)
			}
		})
	}
}

// TestExplainFilterSpan asserts the trace tree of a filtered query carries
// a filter span with its row accounting.
func TestExplainFilterSpan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := `
		SELECT * WHERE {
			<Jerry> <hasFriend> ?friend .
			?friend <actedIn> ?sitcom .
			FILTER (?sitcom != <CurbYourEnthu>) }`
	req, err := http.NewRequest(http.MethodGet,
		ts.URL+"/sparql?explain=1&query="+url.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("explain: %d %s", res.StatusCode, raw)
	}
	var doc explainDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, raw)
	}
	fsp := findSpan(&doc.Trace, "filter")
	if fsp == nil {
		t.Fatalf("trace lacks a filter span\n%s", raw)
	}
	rowsIn, okIn := fsp.Attrs["rows_in"].(float64)
	rowsOut, okOut := fsp.Attrs["rows_out"].(float64)
	if !okIn || !okOut {
		t.Fatalf("filter span lacks rows_in/rows_out: %v", fsp.Attrs)
	}
	// Julia acted in Seinfeld and Veep, Larry in CurbYourEnthu: three rows
	// enter the filter, two survive.
	if rowsIn != 3 || rowsOut != 2 {
		t.Errorf("filter span rows_in=%v rows_out=%v, want 3 and 2", rowsIn, rowsOut)
	}
}
