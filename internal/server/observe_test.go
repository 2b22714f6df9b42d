package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	lbr "repro"
	"repro/internal/trace"
)

// explainDoc mirrors the ?explain=1 response shape.
type explainDoc struct {
	QueryHash string         `json:"query_hash"`
	Vars      []string       `json:"vars"`
	Rows      int            `json:"rows"`
	Boolean   *bool          `json:"boolean"`
	TotalMS   float64        `json:"total_ms"`
	Trace     trace.SpanJSON `json:"trace"`
}

func findSpan(s *trace.SpanJSON, name string) *trace.SpanJSON {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if m := findSpan(&s.Children[i], name); m != nil {
			return m
		}
	}
	return nil
}

// TestExplainEndpoint checks the EXPLAIN API: ?explain=1 answers with the
// trace document instead of rows, regardless of the negotiated result
// format.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Accept: text/csv would be a 406 for explain output were it content
	// negotiated; explain always answers JSON.
	req, err := http.NewRequest(http.MethodGet,
		ts.URL+"/sparql?explain=1&query="+url.QueryEscape(optionalQ), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response lacks X-Request-Id")
	}
	var doc explainDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, body)
	}
	if doc.Rows != 2 || len(doc.Vars) != 2 {
		t.Errorf("rows=%d vars=%v, want 2 rows over 2 vars", doc.Rows, doc.Vars)
	}
	if doc.Trace.Name != "query" {
		t.Errorf("trace root = %q", doc.Trace.Name)
	}
	if doc.QueryHash == "" || doc.Trace.Attrs["query_hash"] != doc.QueryHash {
		t.Errorf("query_hash mismatch: doc %q, trace %v", doc.QueryHash, doc.Trace.Attrs["query_hash"])
	}
	for _, name := range []string{"branch", "init", "prune", "join"} {
		if findSpan(&doc.Trace, name) == nil {
			t.Errorf("trace lacks a %q span\n%s", name, body)
		}
	}
	if ld := findSpan(&doc.Trace, "load"); ld == nil || ld.Attrs["cache"] == nil {
		t.Errorf("load span or its cache outcome missing\n%s", body)
	}
}

// TestExplainTracesServedRoute checks that EXPLAIN traces the route the
// endpoint serves: optionalQ streams from the multi-way join on the
// SELECT path, so its explain root says streamed, and the row count and
// header are the ones the query returns.
func TestExplainTracesServedRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(optionalQ))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, raw)
	}
	var doc explainDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, raw)
	}
	if doc.Trace.Attrs["streamed"] != true {
		t.Errorf("explain root attrs %v, want streamed: true\n%s", doc.Trace.Attrs, raw)
	}
	if doc.Rows != 2 || fmt.Sprint(doc.Vars) != "[friend sitcom]" {
		t.Errorf("rows=%d vars=%v, want 2 rows over [friend sitcom]", doc.Rows, doc.Vars)
	}
}

// TestExplainAskTracesProbe pins that EXPLAIN of an ASK traces the probe
// the endpoint runs for it — AskContext, which stops at the first
// solution — rather than an enumeration of every solution.
func TestExplainAskTracesProbe(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(`ASK { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, raw)
	}
	var doc explainDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, raw)
	}
	if doc.Boolean == nil || !*doc.Boolean {
		t.Errorf("boolean = %v, want true\n%s", doc.Boolean, raw)
	}
	delivered := 0
	var walk func(s *trace.SpanJSON)
	walk = func(s *trace.SpanJSON) {
		if n, ok := s.Attrs["rows"].(float64); ok && s.Name == "join" {
			delivered += int(n)
		}
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	walk(&doc.Trace)
	if doc.Rows > 1 || delivered > 1 {
		t.Errorf("explained probe delivered %d rows (joins %d), want at most 1\n%s", doc.Rows, delivered, raw)
	}
	if doc.QueryHash == "" || doc.Trace.Attrs["query_hash"] != doc.QueryHash {
		t.Errorf("query_hash mismatch: doc %q, trace %v", doc.QueryHash, doc.Trace.Attrs["query_hash"])
	}
}

func TestExplainParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/sparql?explain=1&query=" + url.QueryEscape("SELECT * WHERE { broken"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("explain of a broken query: %d %s", resp.StatusCode, body)
	}
}

// promSampleRE matches one Prometheus sample line of the 0.0.4 text
// format: metric name, optional label set, and a float value.
var promSampleRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

// TestPrometheusMetricsView checks the /metrics text exposition:
// negotiated via ?format= or Accept, parseable under promtool-style
// rules (HELP/TYPE headers, well-formed samples, cumulative buckets with
// a trailing +Inf equal to _count).
func TestPrometheusMetricsView(t *testing.T) {
	// The result cache is off so both runs execute (cached replays run no
	// engine stage and deliberately skip the stage histograms).
	_, ts := newTestServer(t, Config{ResultCacheBudget: -1})
	for i := 0; i < 2; i++ {
		if resp, body := get(t, ts, optionalQ, ""); resp.StatusCode != 200 {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type = %q, want %q", ct, promContentType)
	}
	if !strings.Contains(body, "lbr_queries_total 2\n") {
		t.Errorf("lbr_queries_total missing or wrong:\n%s", body)
	}
	// The memo counts reads only: the first read prepares the text, the
	// second is served from the memo.
	for _, want := range []string{"lbr_query_memo_hits_total 1\n", "lbr_query_memo_misses_total 1\n", "lbr_query_memo_entries 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus view lacks %q:\n%s", want, body)
		}
	}

	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if !promSampleRE.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %q precedes its TYPE header", line)
		}
	}

	// Histogram sanity on the query-duration series: cumulative buckets
	// never decrease, the +Inf bucket exists, and _count equals it.
	bucketRE := regexp.MustCompile(`^lbr_query_duration_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	var counts []int64
	var infCount int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if m := bucketRE.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseInt(m[2], 10, 64)
			counts = append(counts, v)
			if m[1] == "+Inf" {
				infCount = v
			}
		}
	}
	if len(counts) == 0 || infCount < 0 {
		t.Fatalf("query duration buckets missing:\n%s", body)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("buckets not cumulative: %v", counts)
		}
	}
	if infCount != 2 {
		t.Errorf("+Inf bucket = %d, want 2", infCount)
	}
	if !strings.Contains(body, `lbr_query_duration_seconds_count 2`) {
		t.Errorf("_count != +Inf bucket:\n%s", body)
	}
	for _, stage := range []string{"init", "prune", "join", "merge", "serialize"} {
		if !strings.Contains(body, `lbr_stage_duration_seconds_count{stage="`+stage+`"} 2`) {
			t.Errorf("stage %q histogram missing or wrong count:\n%s", stage, body)
		}
	}
	for _, name := range []string{"lbr_wal_appends_total", "lbr_compactions_total", "lbr_snapshot_generation", "lbr_regex_cache_entries"} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("%s missing", name)
		}
	}
	// The movie store was built from Add calls, never loaded or written.
	for _, name := range []string{"lbr_load_last_duration_seconds", "lbr_overlay_install_last_duration_seconds"} {
		if !strings.Contains(body, "\n"+name+" 0\n") {
			t.Errorf("%s missing or non-zero before any load or write:\n%s", name, body)
		}
	}

	// A store filled by LoadNTriples reports the load's wall time, in the
	// gauge and in the JSON wal section.
	st := lbr.NewStore()
	var nt strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&nt, "<http://x/s%d> <http://x/p%d> \"v%d\" .\n", i%97, i%5, i)
	}
	if _, err := st.LoadNTriples(strings.NewReader(nt.String())); err != nil {
		t.Fatal(err)
	}
	// A write on the built store installs a delta overlay.
	if err := st.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyUpdate(`INSERT DATA { <http://x/s1> <http://x/p9> <http://x/s2> }`); err != nil {
		t.Fatal(err)
	}
	loaded := httptest.NewServer(New(st, Config{Log: func(string, ...any) {}}).Handler())
	defer loaded.Close()
	resp, err = loaded.Client().Get(loaded.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"lbr_load_last_duration_seconds", "lbr_overlay_install_last_duration_seconds"} {
		m := regexp.MustCompile(`(?m)^` + name + ` ([-+0-9.eE]+)$`).FindStringSubmatch(string(raw))
		if m == nil {
			t.Fatalf("%s missing after a load and a write:\n%s", name, raw)
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %s after a load and a write, want > 0", name, m[1])
		}
	}
	resp, err = loaded.Client().Get(loaded.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.WAL == nil || snap.WAL.LoadLastMS <= 0 || snap.WAL.OverlayInstallLastMS <= 0 {
		t.Errorf("JSON wal section after a load and a write: %+v (err %v), want load_last_duration_ms and overlay_install_last_duration_ms > 0", snap.WAL, err)
	}
}

// TestMetricsAcceptNegotiation checks the Accept-header route into the
// text view and that JSON stays the default.
func TestMetricsAcceptNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("Accept: text/plain yielded %q", ct)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Errorf("default /metrics is not JSON: %v", err)
	}
	if len(snap.StageLatency) != len(stageNames) {
		t.Errorf("stage_latency has %d entries, want %d", len(snap.StageLatency), len(stageNames))
	}
	if snap.WAL == nil {
		t.Error("wal section missing from JSON snapshot")
	}
}
