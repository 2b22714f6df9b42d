package server

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	lbr "repro"
	"repro/internal/results"
)

// rawGet issues a GET with full control over the request headers: the
// default transport would otherwise negotiate and transparently undo gzip,
// hiding exactly what these tests pin down.
func rawGet(t *testing.T, ts *httptest.Server, query string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return out
}

// TestGzipRoundTrip pins the content coding: a client sending
// Accept-Encoding: gzip gets a gzip document that decompresses to exactly
// the bytes an identity client receives, in every result format and for
// ASK booleans.
func TestGzipRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	queries := []string{optionalQ, `ASK { <Jerry> <hasFriend> ?f . }`}
	accepts := []string{
		"application/sparql-results+json",
		"application/sparql-results+xml",
		"text/csv",
		"text/tab-separated-values",
	}
	for _, q := range queries {
		for _, accept := range accepts {
			plainResp, plain := rawGet(t, ts, q, map[string]string{"Accept": accept})
			if plainResp.StatusCode != 200 {
				t.Fatalf("%s plain: %d %s", accept, plainResp.StatusCode, plain)
			}
			if enc := plainResp.Header.Get("Content-Encoding"); enc != "" {
				t.Errorf("%s: identity response has Content-Encoding %q", accept, enc)
			}
			zResp, zBody := rawGet(t, ts, q, map[string]string{
				"Accept": accept, "Accept-Encoding": "gzip",
			})
			if zResp.StatusCode != 200 {
				t.Fatalf("%s gzip: %d", accept, zResp.StatusCode)
			}
			if enc := zResp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("%s: Content-Encoding = %q, want gzip", accept, enc)
			}
			if vary := zResp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
				t.Errorf("%s: Vary = %q lacks Accept-Encoding", accept, vary)
			}
			if got := gunzip(t, zBody); string(got) != string(plain) {
				t.Errorf("%s: gzip round-trip differs\nplain: %s\ngot:   %s", accept, plain, got)
			}
		}
	}
}

// TestGzipQualityZeroDeclines pins the negotiation edges: gzip;q=0
// refuses the coding — even when a wildcard elsewhere in the header would
// admit it, since per RFC 9110 the most specific member governs — while a
// bare wildcard admits it.
func TestGzipQualityZeroDeclines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ae := range []string{"gzip;q=0", "gzip;q=0, *", "*;q=0, deflate"} {
		resp, _ := rawGet(t, ts, optionalQ, map[string]string{"Accept-Encoding": ae})
		if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Errorf("Accept-Encoding %q got Content-Encoding %q", ae, enc)
		}
	}
	for _, ae := range []string{"*", "deflate, gzip;q=0.5", "*;q=0.1"} {
		resp, body := rawGet(t, ts, optionalQ, map[string]string{"Accept-Encoding": ae})
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("Accept-Encoding %q got %q, want gzip", ae, enc)
		}
		gunzip(t, body)
	}
}

// TestResultCacheCommentAndLiteralQueriesKeyedVerbatim pins the
// normalization guard: whitespace is semantic around '#' comments (a
// newline ends one) and inside quoted literals, so such queries must not
// fold onto each other's cache entries.
func TestResultCacheCommentAndLiteralQueriesKeyedVerbatim(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Identical up to whitespace-collapse: in A the comment ends at the
	// newline and the second pattern applies; in B the '#' swallows it.
	qA := "SELECT * WHERE { <Jerry> <hasFriend> ?f . # c\n?f <actedIn> ?s . }"
	qB := "SELECT * WHERE { <Jerry> <hasFriend> ?f . # c ?f <actedIn> ?s . }"
	if normalizeQuery(qA) == normalizeQuery(qB) {
		t.Fatalf("comment-bearing queries share one cache key")
	}
	_, bodyA := rawGet(t, ts, qA, nil)
	respB, bodyB := rawGet(t, ts, qB, nil)
	if respB.Header.Get("X-Cache") == "hit" {
		t.Fatalf("comment-differing query replayed another query's document")
	}
	if string(bodyA) == string(bodyB) {
		t.Fatalf("distinct queries served identical documents:\n%s", bodyA)
	}
	// Literal whitespace is semantic too.
	if normalizeQuery(`SELECT * WHERE { ?s <p> "a  b" . }`) == normalizeQuery(`SELECT * WHERE { ?s <p> "a b" . }`) {
		t.Fatalf("quoted-literal queries share one cache key")
	}
}

func resultCacheSnap(t *testing.T, ts *httptest.Server) *ResultCacheSnapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, b)
	}
	if snap.ResultCache == nil {
		t.Fatalf("metrics lack result_cache section: %s", b)
	}
	return snap.ResultCache
}

// TestResultCacheReplayAndInvalidation drives the hot-dashboard path: the
// second identical query is served from the result cache byte-identically
// (X-Cache: hit, hit counter up), a whitespace variant shares the entry,
// and a store mutation invalidates by snapshot generation so the next
// query sees the new data, never a retired document.
func TestResultCacheReplayAndInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	accept := map[string]string{"Accept": "application/sparql-results+json"}

	r1, cold := rawGet(t, ts, optionalQ, accept)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") == "hit" {
		t.Fatalf("cold: %d X-Cache=%q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, warm := rawGet(t, ts, optionalQ, accept)
	if r2.StatusCode != 200 || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm: %d X-Cache=%q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if string(warm) != string(cold) {
		t.Fatalf("replayed body differs\ncold: %s\nwarm: %s", cold, warm)
	}
	// Whitespace normalization folds a reformatted query onto the entry.
	r3, _ := rawGet(t, ts, strings.Join(strings.Fields(optionalQ), " "), accept)
	if r3.Header.Get("X-Cache") != "hit" {
		t.Errorf("whitespace variant missed the cache")
	}
	// A gzip client replays the same cached document, compressed.
	r4, zBody := rawGet(t, ts, optionalQ, map[string]string{
		"Accept": "application/sparql-results+json", "Accept-Encoding": "gzip",
	})
	if r4.Header.Get("X-Cache") != "hit" || r4.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip replay: X-Cache=%q enc=%q", r4.Header.Get("X-Cache"), r4.Header.Get("Content-Encoding"))
	}
	if got := gunzip(t, zBody); string(got) != string(cold) {
		t.Errorf("gzip replay differs from cold body")
	}
	rc := resultCacheSnap(t, ts)
	if rc.Hits < 3 || rc.Misses < 1 || rc.Entries < 1 || rc.BytesUsed <= 0 {
		t.Errorf("result cache counters off: %+v", rc)
	}

	// Mutation: Jerry gains a friend with a NYC sitcom. The rebuild starts
	// a new snapshot generation, so the cached gen-1 document must not be
	// replayed.
	srv.store.Add(lbr.TripleIRI("Jerry", "hasFriend", "Wanda"))
	srv.store.Add(lbr.TripleIRI("Wanda", "actedIn", "Seinfeld2"))
	srv.store.Add(lbr.TripleIRI("Seinfeld2", "location", "NewYorkCity"))
	r5, fresh := rawGet(t, ts, optionalQ, accept)
	if r5.Header.Get("X-Cache") == "hit" {
		t.Fatalf("post-mutation query served a retired generation's document")
	}
	if !strings.Contains(string(fresh), "Wanda") {
		t.Fatalf("post-mutation result lacks the new row: %s", fresh)
	}
	if string(fresh) == string(cold) {
		t.Fatalf("post-mutation result identical to retired document")
	}
	// And the new generation caches in its own right.
	if r6, again := rawGet(t, ts, optionalQ, accept); r6.Header.Get("X-Cache") != "hit" || string(again) != string(fresh) {
		t.Errorf("new generation did not cache: X-Cache=%q", r6.Header.Get("X-Cache"))
	}
}

// TestResultCacheDropsRetiredGenerations pins the generation rule of the
// result cache: the first put of a newer generation drops every entry of
// the older ones (they can never match again) and counts them as
// invalidations, not evictions; a put of an older generation is refused.
// Over HTTP, a write followed by a re-query shows the same counter on
// /metrics and in the Prometheus view.
func TestResultCacheDropsRetiredGenerations(t *testing.T) {
	c := newQueryCache(1 << 20)
	c.put(1, "q1", results.JSON, []byte("gen-1 body, q1"), 1)
	c.put(1, "q2", results.JSON, []byte("gen-1 body, q2"), 1)
	body := []byte("gen-2 body")
	c.put(2, "q1", results.JSON, body, 1)
	rc := c.stats()
	if rc.Entries != 1 || rc.BytesUsed != int64(len(body)) {
		t.Fatalf("after the gen-2 put: entries=%d bytes_used=%d, want 1 and %d", rc.Entries, rc.BytesUsed, len(body))
	}
	if rc.Invalidations != 2 || rc.Evictions != 0 {
		t.Fatalf("invalidations=%d evictions=%d, want 2 and 0", rc.Invalidations, rc.Evictions)
	}
	c.put(1, "q3", results.JSON, []byte("late gen-1 body"), 1)
	if got, _ := c.get(1, "q3", results.JSON); got != nil {
		t.Fatalf("a put at a retired generation was retained: %q", got)
	}
	if got, _ := c.get(1, "q1", results.JSON); got != nil {
		t.Fatalf("a get at a retired generation hit: %q", got)
	}
	if got, _ := c.get(2, "q1", results.JSON); string(got) != string(body) {
		t.Fatalf("gen-2 entry lost: %q", got)
	}
	if rc := c.stats(); rc.Entries != 1 || rc.Invalidations != 2 {
		t.Fatalf("refused put changed the cache: %+v", rc)
	}

	srv, ts := newTestServer(t, Config{})
	accept := map[string]string{"Accept": "application/sparql-results+json"}
	rawGet(t, ts, optionalQ, accept)
	srv.store.Add(lbr.TripleIRI("Jerry", "hasFriend", "Wanda"))
	rawGet(t, ts, optionalQ, accept)
	if rc := resultCacheSnap(t, ts); rc.Invalidations != 1 || rc.Entries != 1 || rc.Evictions != 0 {
		t.Fatalf("/metrics after a write: %+v, want 1 invalidation, 1 entry, 0 evictions", rc)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "lbr_result_cache_invalidations_total 1\n") {
		t.Errorf("Prometheus view lacks lbr_result_cache_invalidations_total 1:\n%s", prom)
	}
}

// TestResultCacheDisabled pins the negative-budget switch.
func TestResultCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{ResultCacheBudget: -1})
	for i := 0; i < 2; i++ {
		resp, _ := rawGet(t, ts, optionalQ, nil)
		if resp.Header.Get("X-Cache") == "hit" {
			t.Fatalf("request %d hit a disabled cache", i)
		}
	}
}

// TestResultCacheDistinguishesFormats pins the format component of the
// cache key: the same query in CSV must not replay the JSON document.
func TestResultCacheDistinguishesFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, jsonBody := rawGet(t, ts, optionalQ, map[string]string{"Accept": "application/sparql-results+json"})
	resp, csvBody := rawGet(t, ts, optionalQ, map[string]string{"Accept": "text/csv"})
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatalf("CSV request replayed another format's document")
	}
	if string(jsonBody) == string(csvBody) {
		t.Fatalf("formats served identical bytes")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestResultCacheServesAsk pins ASK caching: the boolean document replays
// with a hit and stays correct.
func TestResultCacheServesAsk(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := `ASK { <Jerry> <hasFriend> ?f . }`
	_, cold := rawGet(t, ts, q, nil)
	resp, warm := rawGet(t, ts, q, nil)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("ask replay missed")
	}
	if string(cold) != string(warm) || !strings.Contains(string(warm), "true") {
		t.Errorf("ask replay wrong: cold=%s warm=%s", cold, warm)
	}
}
