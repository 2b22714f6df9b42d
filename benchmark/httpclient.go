package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/results"
)

// format is a result serialization a client asks for.
type format int

const (
	formatJSON format = iota
	formatTSV
)

func (f format) String() string {
	if f == formatTSV {
		return "tsv"
	}
	return "json"
}

// serializer is the program's writer for the format.
func (f format) serializer() results.Format {
	if f == formatTSV {
		return results.TSV
	}
	return results.JSON
}

func (f format) accept() string {
	if f == formatTSV {
		return "text/tab-separated-values"
	}
	return "application/sparql-results+json"
}

// httpResponse is one completed exchange. body is the decoded document
// and is only valid until the client's next request.
type httpResponse struct {
	status   int
	body     []byte
	wire     int       // bytes of the response body as sent
	hit      bool      // served from the server's result cache
	lastByte time.Time // when the last byte of the response had been read
}

// httpClient is one keep-alive connection to the endpoint. Transparent
// decompression is off so the client sees, and counts, the bytes on the
// wire, and asks for gzip only when the workload says so.
type httpClient struct {
	tr   *http.Transport
	c    *http.Client
	url  string
	wire bytes.Buffer
	body bytes.Buffer
	gz   *gzip.Reader
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{tr: tr, c: &http.Client{Transport: tr}, url: base}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

func (c *httpClient) do(req *http.Request) (httpResponse, error) {
	resp, err := c.c.Do(req)
	if err != nil {
		return httpResponse{}, err
	}
	c.wire.Reset()
	_, err = c.wire.ReadFrom(resp.Body)
	r := httpResponse{status: resp.StatusCode, wire: c.wire.Len(), lastByte: time.Now(), hit: resp.Header.Get("X-Cache") == "hit"}
	resp.Body.Close()
	if err != nil {
		return r, fmt.Errorf("read response: %w", err)
	}
	r.body = c.wire.Bytes()
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if c.gz == nil {
			c.gz, err = gzip.NewReader(&c.wire)
		} else {
			err = c.gz.Reset(&c.wire)
		}
		if err == nil {
			c.body.Reset()
			_, err = c.body.ReadFrom(c.gz)
		}
		if err != nil {
			return r, fmt.Errorf("gunzip response: %w", err)
		}
		r.body = c.body.Bytes()
	}
	return r, nil
}

func (c *httpClient) post(ctx context.Context, contentType, text string, hdr map[string]string) (httpResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/sparql", strings.NewReader(text))
	if err != nil {
		return httpResponse{}, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return c.do(req)
}

func (c *httpClient) query(ctx context.Context, text string, f format, gz bool) (httpResponse, error) {
	hdr := map[string]string{"Accept": f.accept()}
	if gz {
		hdr["Accept-Encoding"] = "gzip"
	}
	return c.post(ctx, "application/sparql-query", text, hdr)
}

func (c *httpClient) update(ctx context.Context, text string) (httpResponse, error) {
	return c.post(ctx, "application/sparql-update", text, nil)
}

func (c *httpClient) get(ctx context.Context, path string) (httpResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+path, nil)
	if err != nil {
		return httpResponse{}, err
	}
	return c.do(req)
}

// jsonHeadVars reads the variable list of a results-JSON document. With
// "head" first, as every serializer in practice writes it, the bindings
// are never decoded.
func jsonHeadVars(doc []byte) ([]string, bool) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, false
		}
		if key != "head" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, false
			}
			continue
		}
		var head struct {
			Vars []string `json:"vars"`
		}
		if err := dec.Decode(&head); err != nil {
			return nil, false
		}
		return head.Vars, true
	}
	return nil, false
}

func tsvHeadVars(doc []byte) ([]string, bool) {
	line := doc
	if i := bytes.IndexByte(doc, '\n'); i >= 0 {
		line = doc[:i]
	}
	var vars []string
	for _, h := range strings.Split(string(line), "\t") {
		if !strings.HasPrefix(h, "?") {
			return nil, false
		}
		vars = append(vars, h[1:])
	}
	return vars, true
}

// checkDocument is the per-operation check of an HTTP read: the document
// is well formed and names the expected variables, and its solution
// count is returned for the caller to compare where the data is fixed.
func checkDocument(doc []byte, f format, wantVars []string) (rows int, ok bool) {
	var vars []string
	if f == formatTSV {
		vars, ok = tsvHeadVars(doc)
		rows = countTSVRows(doc)
	} else {
		if vars, ok = jsonHeadVars(doc); ok {
			rows, ok = countJSONRows(doc)
		}
	}
	if !ok || len(vars) != len(wantVars) {
		return rows, false
	}
	for i := range vars {
		if vars[i] != wantVars[i] {
			return rows, false
		}
	}
	return rows, true
}

func sortedCopy(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

func parseResultCacheStats(metricsDoc []byte) (resultCacheStats, error) {
	var doc struct {
		ResultCache *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
			BytesUsed int64 `json:"bytes_used"`
		} `json:"result_cache"`
	}
	if err := json.Unmarshal(metricsDoc, &doc); err != nil {
		return resultCacheStats{}, fmt.Errorf("/metrics: %w", err)
	}
	if doc.ResultCache == nil {
		return resultCacheStats{}, fmt.Errorf("/metrics: no result_cache section")
	}
	rc := doc.ResultCache
	return resultCacheStats{rc.Hits, rc.Misses, rc.Evictions, rc.BytesUsed}, nil
}
