package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	lbr "repro"
)

// movieStore is the Figure 3.2 fixture of the engine tests: Jerry's
// friends, who acted in sitcoms, which have locations — OPTIONAL over it
// produces NULL rows.
func movieStore(t testing.TB) *lbr.Store {
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
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

const optionalQ = `
	SELECT * WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL {
			?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . } }`

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Log = func(string, ...any) {} // keep abort chatter out of test output
	srv := New(movieStore(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t testing.TB, ts *httptest.Server, query, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestSelectJSONWithOptionalNulls(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, optionalQ, "application/sparql-results+json")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if got := strings.Join(doc.Head.Vars, ","); got != "friend,sitcom" {
		t.Errorf("vars = %q", got)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2\n%s", len(doc.Results.Bindings), body)
	}
	// Larry's row has no NYC sitcom: the OPTIONAL variable must be absent.
	sawNull := false
	for _, b := range doc.Results.Bindings {
		if b["friend"].Value == "Larry" {
			if _, bound := b["sitcom"]; bound {
				t.Errorf("Larry's sitcom should be unbound: %v", b)
			}
			sawNull = true
		}
	}
	if !sawNull {
		t.Errorf("no NULL row served: %s", body)
	}
}

func TestPOSTBodiesAndFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// application/sparql-query body, XML out.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader(optionalQ))
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", "application/sparql-results+xml")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `<sparql xmlns="http://www.w3.org/2005/sparql-results#">`) {
		t.Errorf("XML POST: status %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `<binding name="friend"><uri>Larry</uri></binding>`) {
		t.Errorf("XML bindings missing: %s", body)
	}

	// Form body, CSV out.
	form := url.Values{"query": {optionalQ}}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "text/csv")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "friend,sitcom\r\n") {
		t.Errorf("CSV POST: status %d body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "Larry,\r\n") {
		t.Errorf("CSV NULL cell wrong: %q", body)
	}

	// TSV via GET.
	resp2, tsv := get(t, ts, optionalQ, "text/tab-separated-values")
	if resp2.StatusCode != 200 || !strings.HasPrefix(tsv, "?friend\t?sitcom\n") {
		t.Errorf("TSV: status %d body %q", resp2.StatusCode, tsv)
	}
	if !strings.Contains(tsv, "<Larry>\t\n") {
		t.Errorf("TSV NULL cell wrong: %q", tsv)
	}
}

func TestAsk(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, `ASK { <Jerry> <hasFriend> ?x . }`, "application/json")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != `{"head":{},"boolean":true}` {
		t.Errorf("ASK true: status %d body %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts, `ASK { <Nobody> <hasFriend> ?x . }`, "application/json")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != `{"head":{},"boolean":false}` {
		t.Errorf("ASK false: status %d body %q", resp.StatusCode, body)
	}
}

func TestZeroRowsStillADocument(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, `SELECT * WHERE { <Nobody> <hasFriend> ?x . }`, "application/json")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "x" || len(doc.Results.Bindings) != 0 {
		t.Errorf("zero-row doc wrong: %s", body)
	}
}

func errCode(t *testing.T, body string) string {
	t.Helper()
	var doc struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	return doc.Error.Code
}

func TestProtocolErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Malformed query: 400.
	resp, body := get(t, ts, "SELECT WHERE {", "")
	if resp.StatusCode != 400 || errCode(t, body) != "malformed_query" {
		t.Errorf("malformed: %d %s", resp.StatusCode, body)
	}
	// Missing query: 400.
	resp, err := ts.Client().Get(ts.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || errCode(t, string(b)) != "missing_query" {
		t.Errorf("missing query: %d %s", resp.StatusCode, b)
	}
	// Unacceptable Accept: 406.
	resp, body = get(t, ts, optionalQ, "image/png")
	if resp.StatusCode != 406 || errCode(t, body) != "not_acceptable" {
		t.Errorf("accept: %d %s", resp.StatusCode, body)
	}
	// Wrong POST content type: 415.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader("{}"))
	req.Header.Set("Content-Type", "application/json")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 415 || errCode(t, string(b)) != "bad_content_type" {
		t.Errorf("content type: %d %s", resp.StatusCode, b)
	}
	// A query body one byte over the fixed bound: 413.
	long := optionalQ + strings.Repeat(" ", maxQueryBytes+1-len(optionalQ))
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader(long))
	req.Header.Set("Content-Type", "application/sparql-query")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 413 || errCode(t, string(b)) != "query_too_large" {
		t.Errorf("long query: %d %s", resp.StatusCode, b)
	}
	// Unsupported method: 405 with Allow.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/sparql", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("method: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	// Dataset parameters are rejected, not ignored — in the URL...
	resp, err = ts.Client().Get(ts.URL + "/sparql?query=" + url.QueryEscape(optionalQ) + "&default-graph-uri=http%3A%2F%2Fg")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || errCode(t, string(b)) != "unsupported_parameter" {
		t.Errorf("dataset param: %d %s", resp.StatusCode, b)
	}
	// ...and hidden in a form body.
	form := url.Values{"query": {optionalQ}, "named-graph-uri": {"http://g"}}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || errCode(t, string(b)) != "unsupported_parameter" {
		t.Errorf("form dataset param: %d %s", resp.StatusCode, b)
	}
}

func TestTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	resp, body := get(t, ts, optionalQ, "")
	if resp.StatusCode != 504 || errCode(t, body) != "timeout" {
		t.Fatalf("timeout: %d %s", resp.StatusCode, body)
	}
	if got := srv.Metrics().Snapshot(); got.Timeouts != 1 || got.QueryErrors != 1 {
		t.Errorf("timeout metrics wrong: %+v", got)
	}
}

func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2})
	// Fill both slots directly so the rejection is deterministic.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	resp, body := get(t, ts, optionalQ, "")
	if resp.StatusCode != 503 || errCode(t, body) != "too_many_queries" {
		t.Fatalf("admission: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := srv.Metrics().Snapshot(); got.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", got.Rejected)
	}
	// Freeing a slot lets queries through again.
	<-srv.sem
	if resp, body = get(t, ts, optionalQ, ""); resp.StatusCode != 200 {
		t.Errorf("after release: %d %s", resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"status":"ok"`) || !strings.Contains(string(b), `"triples":8`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, b)
	}

	for i := 0; i < 3; i++ {
		if resp, body := get(t, ts, optionalQ, ""); resp.StatusCode != 200 {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, b)
	}
	if snap.QueriesServed != 3 || snap.RowsStreamed != 6 || snap.InFlight != 0 {
		t.Errorf("metrics = %+v", snap)
	}
	var bucketTotal int64
	for _, lb := range snap.LatencyBuckets {
		bucketTotal += lb.Count
	}
	if bucketTotal != 3 {
		t.Errorf("latency buckets sum to %d, want 3\n%s", bucketTotal, b)
	}
	if srv.Metrics().Snapshot().QueryErrors != 0 {
		t.Errorf("unexpected errors recorded")
	}
}

// countingWriter counts writes so the test can prove rows leave the
// handler incrementally rather than in one materialized body.
type countingWriter struct {
	header   http.Header
	status   int
	writes   int
	bytes    int
	maxWrite int
	rows     int64
}

func (c *countingWriter) Header() http.Header {
	if c.header == nil {
		c.header = http.Header{}
	}
	return c.header
}

func (c *countingWriter) WriteHeader(status int) { c.status = status }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	if len(p) > c.maxWrite {
		c.maxWrite = len(p)
	}
	for _, b := range p {
		if b == '\n' {
			c.rows++
		}
	}
	return len(p), nil
}

// TestLargeSelectStreamsIncrementally runs a ≥100k-row SELECT through the
// handler and asserts the response was produced in many bounded writes —
// i.e. the server never buffered the full result — and that every row
// arrived.
func TestLargeSelectStreamsIncrementally(t *testing.T) {
	const n = 120_000
	s := lbr.NewStore()
	triples := make([]lbr.Triple, 0, n)
	for i := 0; i < n; i++ {
		triples = append(triples, lbr.TripleIRI(
			fmt.Sprintf("http://example.org/s%06d", i),
			"http://example.org/p",
			fmt.Sprintf("http://example.org/o%06d", i)))
	}
	s.AddAll(triples)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	srv := New(s, Config{})
	req := httptest.NewRequest(http.MethodGet,
		"/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?s <http://example.org/p> ?o . }`), nil)
	req.Header.Set("Accept", "text/tab-separated-values")
	w := &countingWriter{}
	srv.Handler().ServeHTTP(w, req)

	if w.status != 200 {
		t.Fatalf("status %d", w.status)
	}
	if w.rows != n+1 { // header line + one line per solution
		t.Errorf("served %d lines, want %d", w.rows, n+1)
	}
	// The 32 KiB response buffer bounds every write; a materialized
	// response would arrive as one giant write.
	if w.writes < 50 {
		t.Errorf("only %d writes for %d bytes: response was buffered, not streamed", w.writes, w.bytes)
	}
	if w.maxWrite > 64<<10 {
		t.Errorf("single write of %d bytes: response buffering is unbounded", w.maxWrite)
	}
	if got := srv.Metrics().Snapshot().RowsStreamed; got != n {
		t.Errorf("rows_streamed = %d, want %d", got, n)
	}
}

// TestConcurrentQueriesAgainstMutatingStore hammers the endpoint from many
// goroutines while another keeps mutating the store (forcing index
// rebuilds), the acceptance scenario for the -race gate. Every response
// must be a complete, well-formed document of the pre- or post-mutation
// data — never a torn one.
func TestConcurrentQueriesAgainstMutatingStore(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 64})
	const (
		readers    = 8
		perReader  = 12
		mutations  = 30
		askQuery   = `ASK { <Jerry> <hasFriend> ?x . }`
		selectTSV  = "text/tab-separated-values"
		selectJSON = "application/sparql-results+json"
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // mutator: adds fresh triples, invalidating the index
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.store.Add(lbr.TripleIRI(fmt.Sprintf("Extra%d", i), "actedIn", "Seinfeld"))
		}
	}()
	errc := make(chan error, readers*perReader)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				accept := selectTSV
				if i%2 == 0 {
					accept = selectJSON
				}
				if i%3 == 0 {
					resp, body := get(t, ts, askQuery, selectJSON)
					if resp.StatusCode != 200 || !strings.Contains(body, `"boolean":true`) {
						errc <- fmt.Errorf("ask: %d %s", resp.StatusCode, body)
					}
					continue
				}
				resp, body := get(t, ts, optionalQ, accept)
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("select: %d %s", resp.StatusCode, body)
					continue
				}
				switch accept {
				case selectJSON:
					if !strings.HasPrefix(body, `{"head":{"vars":["friend","sitcom"]}`) || !strings.HasSuffix(strings.TrimSpace(body), "]}}") {
						errc <- fmt.Errorf("torn JSON: %q", body)
					}
				default:
					if !strings.HasPrefix(body, "?friend\t?sitcom\n") {
						errc <- fmt.Errorf("torn TSV: %q", body)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if snap := srv.Metrics().Snapshot(); snap.InFlight != 0 {
		t.Errorf("in_flight = %d after drain", snap.InFlight)
	}
}
