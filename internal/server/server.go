// Package server exposes an lbr.Store over HTTP as a SPARQL 1.1 Protocol
// endpoint. One handler serves GET and POST /sparql with Accept-header
// content negotiation across the four result formats of internal/results,
// streaming SELECT rows to the socket as the engine's pipelined join
// produces them — constant memory however large the result — with a
// bounded admission semaphore layered over the store's worker pool, a
// per-request timeout wired into QueryStreamRowsObserved's context, structured
// JSON errors, gzip content coding (streaming-safe), a result cache
// keyed on (index snapshot generation, normalized query, format) for
// hot dashboards, a /healthz probe, and expvar-style /metrics covering
// both cache tiers.
//
// The same route accepts SPARQL 1.1 Update requests over POST
// (application/sparql-update bodies or update= form fields), applied to
// the store's delta overlay under a separate write admission bound, and
// every query response carries a weak ETag derived from the store's MVCC
// snapshot generation so If-None-Match revalidation costs a counter read
// instead of a query.
package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lbr "repro"
	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/results"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// Config tunes one Server. The zero value serves with no per-request
// timeout, an admission bound of 4× the store's effective worker count,
// a 1 MiB query-text cap, and a flush every 4096 rows.
type Config struct {
	// Timeout bounds each query end to end (parse to last byte); 0 means
	// no bound. A query that exceeds it is cancelled via its context and
	// reported as 504 if nothing has been streamed yet.
	Timeout time.Duration
	// MaxConcurrent bounds how many queries may execute at once; further
	// requests are rejected immediately with 503 (admission control, so a
	// burst degrades crisply instead of queueing without bound). 0 picks
	// 4× the store's Options.EffectiveWorkers().
	MaxConcurrent int
	// MaxQueryBytes caps the query text accepted from a request body or
	// URL; 0 means 1 MiB.
	MaxQueryBytes int64
	// FlushEveryRows is how many result rows may accumulate in the
	// response buffer before an explicit flush; 0 means 4096. The 32 KiB
	// write buffer also flushes itself whenever it fills.
	FlushEveryRows int
	// ResultCacheBudget bounds, in bytes, the server's result cache: a
	// per-(snapshot generation, normalized query, format) LRU of fully
	// serialized result documents, replayed to repeat queries of an
	// unchanged index without touching the engine — the hot-dashboard
	// path. A store mutation advances the snapshot generation, so stale
	// documents stop matching immediately. 0 picks the default (16 MiB);
	// negative disables the cache.
	ResultCacheBudget int64
	// MaxConcurrentUpdates bounds how many SPARQL Update requests may
	// execute at once, independently of the query admission bound —
	// updates serialize on the store's write lock, so queueing them in
	// the query semaphore would let a write burst starve reads. Further
	// updates are rejected with 503. 0 means 1.
	MaxConcurrentUpdates int
	// Log receives one line per failed request; nil uses log.Printf.
	Log func(format string, args ...any)
}

// defaultResultCacheBudget is the result cache bound a zero
// Config.ResultCacheBudget selects.
const defaultResultCacheBudget = 16 << 20

// Server is the SPARQL Protocol front end over one store.
type Server struct {
	store   *lbr.Store
	cfg     Config
	sem     chan struct{}
	upSem   chan struct{}
	metrics Metrics
	qcache  *queryCache
	// reqSeq numbers /sparql requests; the id is stamped on every response
	// as X-Request-Id and prefixes the server's log lines, so a client
	// error report can be joined to its log entries (and its slow-query
	// log line, via the query hash) without guesswork.
	reqSeq atomic.Int64
}

// reqID reads the request id stamped on the response by handleSPARQL; it
// lets the logging helpers recover the id without threading a parameter
// through every serve path.
func reqID(w http.ResponseWriter) string {
	return w.Header().Get("X-Request-Id")
}

// New builds a Server for the store. The store may be pre-built or not:
// a query arriving before the first Build triggers the store's usual
// lazy single-flight build, inside that request's timeout.
func New(store *lbr.Store, cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * store.Options().EffectiveWorkers()
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = 1 << 20
	}
	if cfg.FlushEveryRows <= 0 {
		cfg.FlushEveryRows = 4096
	}
	if cfg.ResultCacheBudget == 0 {
		cfg.ResultCacheBudget = defaultResultCacheBudget
	}
	if cfg.MaxConcurrentUpdates <= 0 {
		cfg.MaxConcurrentUpdates = 1
	}
	if cfg.Log == nil {
		cfg.Log = log.Printf
	}
	return &Server{
		store:  store,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		upSem:  make(chan struct{}, cfg.MaxConcurrentUpdates),
		qcache: newQueryCache(cfg.ResultCacheBudget),
	}
}

// Metrics exposes the server's counters (e.g. for tests and benchmarks).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// MaxConcurrent reports the resolved admission bound.
func (s *Server) MaxConcurrent() int { return cap(s.sem) }

// Handler returns the endpoint's routing table: /sparql, /healthz, and
// /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleSPARQL)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handleMetrics serves the counter snapshot extended with the two cache
// tiers (the server's result cache and the store's cross-query BitMat
// materialization cache) and the store's durability counters. The default
// view is the backward-compatible JSON document; ?format=prometheus (or an
// Accept header naming text/plain, what a Prometheus scraper sends)
// selects the Prometheus text exposition instead — same counters,
// cumulative histogram buckets in seconds.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	// Generation() reads the store's current MVCC generation without
	// forcing a build — /metrics must never trigger index construction.
	snap.SnapshotGeneration = s.store.Generation()
	// Both cache sections keep LRU evictions and generation-advance
	// invalidations as distinct counters: evictions mean the budget is too
	// small, invalidations mean writes are churning snapshots.
	rc := s.qcache.stats()
	rc.Budget = max(s.cfg.ResultCacheBudget, 0)
	snap.ResultCache = &rc
	bm := s.store.CacheStats()
	snap.BitMatCache = &bm
	memo := s.store.MemoStats()
	snap.QueryMemo = &memo
	wal := s.store.WALStats()
	snap.WAL = &wal
	snap.RegexCacheEntries = int64(lbr.RegexCacheSize())
	if wantsPrometheus(r) {
		writeMetricsProm(w, snap)
		return
	}
	writeMetricsJSON(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"triples\":%d}\n", s.store.Len())
}

// protocolError is an error that already knows its HTTP shape.
type protocolError struct {
	status  int
	code    string
	message string
}

func (e *protocolError) Error() string { return e.message }

func perr(status int, code, format string, args ...any) *protocolError {
	return &protocolError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// writeError sends the structured JSON error body. It must only be called
// before any result bytes have been written.
func writeError(w http.ResponseWriter, e *protocolError) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	if e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.status)
	body, _ := json.Marshal(map[string]any{"error": map[string]any{
		"status":  e.status,
		"code":    e.code,
		"message": e.message,
	}})
	w.Write(append(body, '\n'))
}

// requestText extracts the SPARQL query or update string per the SPARQL
// 1.1 Protocol: GET with a query URL parameter, POST with an
// application/sparql-query or application/sparql-update body, or POST
// with a URL-encoded form carrying a query or update field. Updates must
// travel by POST — a mutation in a GET URL would be replayable by any
// cache or prefetcher.
func (s *Server) requestText(r *http.Request) (src string, isUpdate bool, _ *protocolError) {
	if err := checkDatasetParams(r); err != nil {
		return "", false, err
	}
	switch r.Method {
	case http.MethodGet:
		if r.URL.Query().Get("update") != "" {
			return "", false, perr(http.StatusMethodNotAllowed, "method_not_allowed", "SPARQL updates require POST")
		}
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", false, perr(http.StatusBadRequest, "missing_query", "GET requires a non-empty query URL parameter")
		}
		if int64(len(q)) > s.cfg.MaxQueryBytes {
			return "", false, perr(http.StatusRequestEntityTooLarge, "query_too_large", "query exceeds %d bytes", s.cfg.MaxQueryBytes)
		}
		return q, false, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ct)
		if ct != "" && err != nil {
			return "", false, perr(http.StatusUnsupportedMediaType, "bad_content_type", "unparseable Content-Type %q", ct)
		}
		switch mt {
		case "application/sparql-query", "application/sparql-update":
			isUpdate := mt == "application/sparql-update"
			body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxQueryBytes))
			if err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					return "", isUpdate, perr(http.StatusRequestEntityTooLarge, "query_too_large", "query body exceeds %d bytes", s.cfg.MaxQueryBytes)
				}
				return "", isUpdate, perr(http.StatusBadRequest, "bad_request_body", "reading query body: %v", err)
			}
			if len(body) == 0 {
				return "", isUpdate, perr(http.StatusBadRequest, "missing_query", "empty %s body", mt)
			}
			return string(body), isUpdate, nil
		case "application/x-www-form-urlencoded", "":
			r.Body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxQueryBytes)
			if err := r.ParseForm(); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					return "", false, perr(http.StatusRequestEntityTooLarge, "query_too_large", "form body exceeds %d bytes", s.cfg.MaxQueryBytes)
				}
				return "", false, perr(http.StatusBadRequest, "bad_form", "unparseable form body: %v", err)
			}
			// Dataset parameters hidden in the form body are as much a
			// dataset selection as ones in the URL.
			if err := rejectDatasetParams(r.PostForm); err != nil {
				return "", false, err
			}
			q := r.PostForm.Get("query")
			if q == "" {
				q = r.URL.Query().Get("query")
			}
			if u := r.PostForm.Get("update"); u != "" {
				if q != "" {
					return "", true, perr(http.StatusBadRequest, "ambiguous_request", "a request must carry a query or an update field, not both")
				}
				return u, true, nil
			}
			if q == "" {
				return "", false, perr(http.StatusBadRequest, "missing_query", "form POST requires a query or update field")
			}
			return q, false, nil
		default:
			return "", false, perr(http.StatusUnsupportedMediaType, "bad_content_type",
				"POST bodies must be application/sparql-query, application/sparql-update, or application/x-www-form-urlencoded, not %q", mt)
		}
	default:
		return "", false, perr(http.StatusMethodNotAllowed, "method_not_allowed", "SPARQL Protocol queries use GET or POST")
	}
}

// checkDatasetParams rejects the protocol's RDF-dataset parameters in the
// URL; form bodies are checked after parsing in queryText. The store is a
// single graph, and silently ignoring a dataset selection would answer a
// different question than the client asked.
func checkDatasetParams(r *http.Request) *protocolError {
	return rejectDatasetParams(r.URL.Query())
}

func rejectDatasetParams(params url.Values) *protocolError {
	for _, p := range []string{"default-graph-uri", "named-graph-uri", "using-graph-uri", "using-named-graph-uri"} {
		if len(params[p]) > 0 {
			return perr(http.StatusBadRequest, "unsupported_parameter",
				"%s is not supported: the endpoint serves a single graph", p)
		}
	}
	return nil
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Request-Id", fmt.Sprintf("lbr-%d", s.reqSeq.Add(1)))
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, perr(http.StatusMethodNotAllowed, "method_not_allowed", "SPARQL Protocol queries use GET or POST"))
		return
	}
	src, isUpdate, perr2 := s.requestText(r)
	if perr2 != nil {
		writeError(w, perr2)
		return
	}
	if isUpdate {
		s.serveUpdate(w, r, src)
		return
	}
	// ?explain=1 (URL or form field) turns the request into an EXPLAIN:
	// the query executes traced and the response is the span-tree JSON
	// instead of the result rows.
	explain := r.URL.Query().Get("explain") == "1" || r.PostForm.Get("explain") == "1"
	format, ok := results.Negotiate(r.Header.Get("Accept"))
	if !ok && !explain { // an EXPLAIN response is always JSON
		writeError(w, perr(http.StatusNotAcceptable, "not_acceptable",
			"no supported result format in Accept %q; the endpoint serves %s, %s, %s, and %s",
			r.Header.Get("Accept"),
			"application/sparql-results+json", "application/sparql-results+xml",
			"text/csv", "text/tab-separated-values"))
		return
	}
	// Syntax-check before admission so malformed queries are turned away
	// without consuming an execution slot. A text the snapshot's
	// prepared-query memo holds is not parsed at all; any other is parsed
	// here and prepared by the admitted read.
	ask, err := s.store.CheckQuery(src)
	if err != nil {
		writeError(w, perr(http.StatusBadRequest, "malformed_query", "%v", err))
		return
	}

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.metrics.rejected.Add(1)
		writeError(w, perr(http.StatusServiceUnavailable, "too_many_queries",
			"server is at its concurrent query limit (%d)", s.cfg.MaxConcurrent))
		return
	}
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	if explain {
		s.serveExplain(ctx, w, r, src, ask, start)
		return
	}
	if ask {
		s.serveAsk(ctx, w, r, format, src, start)
		return
	}
	s.serveSelect(ctx, w, r, format, src, start)
}

// serveExplain answers an ?explain=1 request: the query executes traced
// on the route the endpoint serves it by — serveSelect's
// QueryStreamRowsObserved, so a streamable query shows its sequential
// streamed join, or serveAsk's AskContext probe for an ASK — but
// bypassing the result cache: an EXPLAIN wants this execution's real
// spans, not a replay. The response is a JSON document with the stable
// query hash, the result shape (vars, or the ASK's boolean), the rows
// delivered, and the full span tree. The rows are counted, not
// serialized; run the query without explain for them.
func (s *Server) serveExplain(ctx context.Context, w http.ResponseWriter, r *http.Request, src string, ask bool, start time.Time) {
	t := trace.New("query")
	var (
		st    lbr.Stats
		vars  []string
		rows  int
		found bool
		err   error
	)
	if ask {
		found, err = s.store.AskContext(ctx, src, t.Root())
		if found {
			rows = 1
		}
	} else {
		err = s.store.QueryStreamRowsObserved(ctx, src, &st, t.Root(), func(vs []string, row []lbr.Term) bool {
			if row == nil {
				vars = vs
			} else {
				rows++
			}
			return true
		})
	}
	t.Finish()
	if err != nil {
		s.failBeforeStream(ctx, w, r, err)
		return
	}
	wall := time.Since(start)
	doc := map[string]any{
		"query_hash": trace.QueryHash(src),
		"rows":       rows,
		"total_ms":   float64(wall.Microseconds()) / 1000.0,
		"trace":      t.Root().Snapshot(),
	}
	// Like serveAsk, an ASK records no stage histograms: its probe
	// reports no stage times.
	if ask {
		doc["boolean"] = found
	} else {
		s.metrics.observeStages(&st, wall)
		doc["vars"] = vars
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		s.metrics.errors.Add(1)
		return
	}
	s.metrics.queries.Add(1)
	s.metrics.observeLatency(time.Since(start))
}

// serveUpdate executes a SPARQL 1.1 Update request. Updates get their own
// admission semaphore (Config.MaxConcurrentUpdates): they serialize on the
// store's write lock, so admitting them against the query bound would let
// a write burst occupy slots that could be streaming reads. The response
// is a JSON summary of the effective changes and the resulting snapshot
// generation.
func (s *Server) serveUpdate(w http.ResponseWriter, r *http.Request, src string) {
	// Syntax-check before admission, mirroring the query path: malformed
	// requests are turned away without consuming the write slot.
	if _, err := sparql.ParseUpdate(src); err != nil {
		writeError(w, perr(http.StatusBadRequest, "malformed_update", "%v", err))
		return
	}
	select {
	case s.upSem <- struct{}{}:
		defer func() { <-s.upSem }()
	default:
		s.metrics.updateRejected.Add(1)
		writeError(w, perr(http.StatusServiceUnavailable, "too_many_updates",
			"server is at its concurrent update limit (%d)", s.cfg.MaxConcurrentUpdates))
		return
	}
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := s.store.ApplyUpdateContext(ctx, src)
	if err != nil {
		s.metrics.updateErrors.Add(1)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.timeouts.Add(1)
			writeError(w, perr(http.StatusGatewayTimeout, "timeout", "update exceeded the server timeout of %s", s.cfg.Timeout))
		case errors.Is(err, context.Canceled):
			s.cfg.Log("sparql: [%s] client cancelled update %s %s", reqID(w), r.Method, r.URL.Path)
			panic(http.ErrAbortHandler)
		default:
			writeError(w, perr(http.StatusInternalServerError, "update_failed", "%v", err))
		}
		return
	}
	s.metrics.updates.Add(1)
	s.metrics.triplesInserted.Add(int64(res.Inserted))
	s.metrics.triplesDeleted.Add(int64(res.Deleted))
	s.metrics.observeLatency(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	body, _ := json.Marshal(res)
	w.Write(append(body, '\n'))
}

// resultETag derives the entity tag of a result document from the
// snapshot generation and the result-cache key (normalized query text and
// format). It is weak: two generations can render byte-identical
// documents, so the tag only certifies "nothing changed", never "changed".
func resultETag(gen uint64, norm string, format results.Format) string {
	h := fnv.New64a()
	io.WriteString(h, norm)
	io.WriteString(h, "\x00")
	io.WriteString(h, format.ContentType())
	return fmt.Sprintf(`W/"lbr-%d-%016x"`, gen, h.Sum64())
}

// ifNoneMatchHas applies the weak comparison of RFC 9110 §8.8.3.2 to an
// If-None-Match header.
func ifNoneMatchHas(header, etag string) bool {
	if header == "" {
		return false
	}
	opaque := strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == opaque {
			return true
		}
	}
	return false
}

// checkNotModified stamps the response's ETag and serves 304 when the
// client already holds the current document. Available only with the
// result cache enabled — the tag reuses its (generation, normalized
// query, format) key.
func (s *Server) checkNotModified(w http.ResponseWriter, r *http.Request, gen uint64, norm string, format results.Format, start time.Time) bool {
	etag := resultETag(gen, norm, format)
	w.Header().Set("ETag", etag)
	if !ifNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("Vary", "Accept, Accept-Encoding")
	w.WriteHeader(http.StatusNotModified)
	s.metrics.notModified.Add(1)
	s.metrics.queries.Add(1)
	s.metrics.observeLatency(time.Since(start))
	return true
}

// acceptsGzip reports whether the request's Accept-Encoding admits gzip
// with a nonzero quality. Per RFC 9110 §12.5.3 the most specific member
// governs: an explicit gzip;q=0 refuses the coding even when a wildcard
// elsewhere in the header would allow it ("*" matches only codings not
// otherwise named).
func acceptsGzip(r *http.Request) bool {
	var gzipQ, starQ float64
	var gzipSeen, starSeen bool
	for rest := r.Header.Get("Accept-Encoding"); rest != ""; {
		var member string
		member, rest, _ = strings.Cut(rest, ",")
		coding, params, _ := strings.Cut(member, ";")
		coding = strings.TrimSpace(coding)
		isGzip := strings.EqualFold(coding, "gzip")
		if !isGzip && coding != "*" {
			continue
		}
		q := 1.0
		for params != "" {
			var p string
			p, params, _ = strings.Cut(params, ";")
			if p = strings.TrimSpace(p); strings.HasPrefix(p, "q=") {
				if v, err := strconv.ParseFloat(p[len("q="):], 64); err == nil {
					q = v
				}
			}
		}
		if isGzip {
			gzipQ, gzipSeen = q, true
		} else {
			starQ, starSeen = q, true
		}
	}
	if gzipSeen {
		return gzipQ > 0
	}
	return starSeen && starQ > 0
}

// gzipPool holds gzip writers at the default level between responses: a
// writer's compressor is about 1 MB, too much to allocate per response.
// takeGzip resets a pooled writer onto w, which makes it byte for byte a
// fresh gzip.NewWriter(w) even when its last response was abandoned
// mid-stream, so a response puts its writer back however it ended. A
// pooled writer keeps its last destination reachable until it is taken
// again or a collection empties the pool.
var gzipPool sync.Pool

func takeGzip(w io.Writer) *gzip.Writer {
	if gz, ok := gzipPool.Get().(*gzip.Writer); ok {
		gz.Reset(w)
		return gz
	}
	return gzip.NewWriter(w)
}

// setResultHeaders stamps the headers every result document carries. The
// response splits on Accept and Accept-Encoding, so Vary covers both.
func setResultHeaders(w http.ResponseWriter, format results.Format, gzipped bool) {
	w.Header().Set("Content-Type", format.ContentType())
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.Header().Set("Vary", "Accept, Accept-Encoding")
	if gzipped {
		w.Header().Set("Content-Encoding", "gzip")
	}
}

// replayCached streams a cached result document: headers, then the body
// in bounded chunks (gzip-compressed on the fly when negotiated) with
// explicit flushes, so a replayed megabyte dashboard behaves like a
// streamed one rather than one giant write.
func (s *Server) replayCached(w http.ResponseWriter, r *http.Request, format results.Format, body []byte) bool {
	useGzip := acceptsGzip(r)
	setResultHeaders(w, format, useGzip)
	w.Header().Set("X-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var out io.Writer = w
	var gz *gzip.Writer
	if useGzip {
		gz = takeGzip(w)
		defer gzipPool.Put(gz)
		out = gz
	}
	const chunk = 64 << 10
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		if _, err := out.Write(body[off:end]); err != nil {
			return false
		}
		if end < len(body) {
			if gz != nil {
				if err := gz.Flush(); err != nil {
					return false
				}
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return false
			}
		}
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return false
		}
	}
	return true
}

// serveResultCache is the result-cache prologue of serveAsk and
// serveSelect: it normalizes the query, reads the snapshot generation,
// answers 304 when the client holds the current document, and replays a
// cached one without touching the engine. done reports that the response
// is complete (or failed); otherwise miss, nil with the cache disabled,
// records the document the caller serves for retain. With the cache
// disabled none of its machinery runs (normalization, generation lookup,
// the tee), so the path stays the pre-cache one.
func (s *Server) serveResultCache(ctx context.Context, w http.ResponseWriter, r *http.Request, format results.Format, src string, start time.Time) (miss *resultTee, done bool) {
	if s.qcache == nil {
		return nil, false
	}
	norm := normalizeQuery(src)
	gen, err := s.store.SnapshotGeneration()
	if err != nil {
		s.failBeforeStream(ctx, w, r, err)
		return nil, true
	}
	if s.checkNotModified(w, r, gen, norm, format, start) {
		return nil, true
	}
	body, rows := s.qcache.get(gen, norm, format)
	if body == nil {
		return &resultTee{gen: gen, norm: norm, format: format, max: s.qcache.maxEntry}, false
	}
	if !s.replayCached(w, r, format, body) {
		s.metrics.errors.Add(1)
		s.cfg.Log("sparql: [%s] cached replay aborted", reqID(w))
		panic(http.ErrAbortHandler)
	}
	s.metrics.rowsStreamed.Add(rows)
	s.metrics.queries.Add(1)
	s.metrics.observeLatency(time.Since(start))
	return nil, true
}

// retain files the document miss recorded, once it was serialized in
// full, so the cache never holds a truncated body; rows is the row count
// a replay credits. The generation is read again first: a rebuild racing
// this query may have run it against a newer snapshot, and filing that
// body under the old generation would deposit a dead entry that only
// wastes budget (generations are monotonic, so it could never be served
// stale — just uselessly).
func (s *Server) retain(miss *resultTee, rows int64) {
	if miss == nil || miss.overflow {
		return
	}
	if gen, err := s.store.SnapshotGeneration(); err == nil && gen == miss.gen {
		s.qcache.put(miss.gen, miss.norm, miss.format, miss.buf, rows)
	}
}

func (s *Server) serveAsk(ctx context.Context, w http.ResponseWriter, r *http.Request, format results.Format, src string, start time.Time) {
	miss, done := s.serveResultCache(ctx, w, r, format, src, start)
	if done {
		return
	}
	b, err := s.store.AskContext(ctx, src, nil)
	if err != nil {
		s.failBeforeStream(ctx, w, r, err)
		return
	}
	useGzip := acceptsGzip(r)
	setResultHeaders(w, format, useGzip)
	var out io.Writer = w
	var gz *gzip.Writer
	if useGzip {
		gz = takeGzip(w)
		defer gzipPool.Put(gz)
		out = gz
	}
	if miss != nil {
		miss.w, out = out, miss
	}
	err = results.NewWriter(format, out).Boolean(b)
	if err == nil && gz != nil {
		err = gz.Close()
	}
	if err != nil {
		s.metrics.errors.Add(1)
		return
	}
	s.retain(miss, 0)
	s.metrics.queries.Add(1)
	s.metrics.observeLatency(time.Since(start))
}

func (s *Server) serveSelect(ctx context.Context, w http.ResponseWriter, r *http.Request, format results.Format, src string, start time.Time) {
	miss, done := s.serveResultCache(ctx, w, r, format, src, start)
	if done {
		return
	}

	useGzip := acceptsGzip(r)
	rc := http.NewResponseController(w)
	// Write path: serializer (one Write per row) -> tee (records the
	// uncompressed document for the cache; absent when it is disabled) ->
	// 32 KiB buffer -> optional gzip, a writer taken from gzipPool and
	// returned to it however the response ends -> socket. The gzip layer
	// sits under the buffer so each explicit flush compresses one sizable
	// block instead of many row-sized ones.
	var sink io.Writer = w
	var gz *gzip.Writer
	if useGzip {
		gz = takeGzip(w)
		defer gzipPool.Put(gz)
		sink = gz
	}
	bw := bufio.NewWriterSize(sink, 32<<10)
	var rowSink io.Writer = bw
	if miss != nil {
		miss.w, rowSink = bw, miss
	}
	sw := results.NewWriter(format, rowSink)
	var (
		headerVars []string
		streaming  bool // response status and result header are on the wire
		rows       int64
		sinceFl    int
		ioErr      error
	)
	// The 200 and the result header are deferred to the first row (or to a
	// clean zero-row completion below): a query that fails or times out
	// before producing anything still gets a real error status instead of
	// a truncated 200.
	begin := func() bool {
		setResultHeaders(w, format, useGzip)
		w.WriteHeader(http.StatusOK)
		streaming = true
		ioErr = sw.Begin(headerVars)
		return ioErr == nil
	}
	flushAll := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if gz != nil {
			// Flush (not Close): emits the compressed block so the client
			// sees the rows now, keeps the stream open for more.
			if err := gz.Flush(); err != nil {
				return err
			}
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
	var st lbr.Stats
	err := s.store.QueryStreamRowsObserved(ctx, src, &st, nil, func(vars []string, row []lbr.Term) bool {
		if row == nil {
			headerVars = vars
			return true
		}
		if !streaming && !begin() {
			return false
		}
		if ioErr = sw.Row(row); ioErr != nil {
			return false
		}
		rows++
		sinceFl++
		if sinceFl >= s.cfg.FlushEveryRows {
			sinceFl = 0
			// Push the chunk to the client even when the HTTP stack is
			// still under its own buffer threshold; streaming consumers
			// read rows long before the query finishes.
			if ioErr = flushAll(); ioErr != nil {
				return false
			}
		}
		return true
	})
	s.metrics.rowsStreamed.Add(rows)
	if ioErr != nil {
		// The client went away (or the socket broke) mid-stream.
		s.metrics.errors.Add(1)
		s.cfg.Log("sparql: [%s] aborted after %d rows: %v", reqID(w), rows, ioErr)
		panic(http.ErrAbortHandler)
	}
	if err != nil {
		if !streaming {
			s.failBeforeStream(ctx, w, r, err)
			return
		}
		// Too late for an error status: the document is truncated. Abort
		// the connection so the client sees a transport error instead of
		// silently mistaking the prefix for a complete result.
		s.countFailure(err)
		s.cfg.Log("sparql: [%s] query failed after %d rows: %v", reqID(w), rows, err)
		panic(http.ErrAbortHandler)
	}
	if !streaming {
		// Zero rows: the whole (empty) document is written here.
		if !begin() {
			s.metrics.errors.Add(1)
			panic(http.ErrAbortHandler)
		}
	}
	if err := sw.End(); err == nil {
		err = bw.Flush()
	}
	if err == nil && gz != nil {
		err = gz.Close()
	}
	if err != nil {
		s.metrics.errors.Add(1)
		panic(http.ErrAbortHandler)
	}
	s.retain(miss, rows)
	s.metrics.queries.Add(1)
	wall := time.Since(start)
	s.metrics.observeLatency(wall)
	s.metrics.observeStages(&st, wall)
}

// countFailure classifies a failed execution for the metrics.
func (s *Server) countFailure(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.timeouts.Add(1)
	}
	s.metrics.errors.Add(1)
}

// failBeforeStream reports an execution error while the response is still
// unwritten, mapping timeout to 504, client cancellation to a closed
// connection, a filter outside the supported core to a structured 400
// naming the offending expression, any other by-design rejection
// (engine.Unsupported: predicate joins, three-variable patterns the
// engine cannot expand) to 400 unsupported_query, and anything else to
// 500.
func (s *Server) failBeforeStream(ctx context.Context, w http.ResponseWriter, r *http.Request, err error) {
	s.countFailure(err)
	var unsafeFilter *algebra.UnsafeFilterError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, perr(http.StatusGatewayTimeout, "timeout", "query exceeded the server timeout of %s", s.cfg.Timeout))
	case errors.Is(err, context.Canceled):
		// The client is gone; nobody is listening for a status code.
		s.cfg.Log("sparql: [%s] client cancelled %s %s", reqID(w), r.Method, r.URL.Path)
		panic(http.ErrAbortHandler)
	case errors.As(err, &unsafeFilter):
		writeError(w, perr(http.StatusBadRequest, "unsupported_filter",
			"unsupported FILTER: ?%s is bound outside the scope of FILTER(%s)",
			unsafeFilter.Var, unsafeFilter.Expr))
	case engine.Unsupported(err):
		writeError(w, perr(http.StatusBadRequest, "unsupported_query", "unsupported query: %v", err))
	default:
		writeError(w, perr(http.StatusInternalServerError, "query_failed", "%v", err))
	}
}
