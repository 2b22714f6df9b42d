package server

import (
	"container/list"
	"io"
	"strings"
	"sync"

	"repro/internal/results"
)

// queryCache is the server-side result cache for hot dashboards: a
// bounded LRU of fully serialized result documents keyed on (index
// snapshot generation, whitespace-normalized query text, result format).
// The generation component makes invalidation cheap — a write bumps the
// store's generation, so every entry of the previous snapshot stops
// matching. Generations only grow, so the cache remembers the newest one
// it has seen: the first put of a newer generation drops every retired
// entry at once (counted as invalidations, apart from the budget's
// evictions), and a put of an older one is refused.
//
// Entries hold the uncompressed serialized body; content coding (gzip) is
// applied per response at replay time, so one cached document serves
// clients with and without Accept-Encoding alike.
type queryCache struct {
	mu       sync.Mutex
	budget   int64 // total byte bound over cached bodies
	maxEntry int64 // per-document bound; larger results are not retained
	used     int64
	m        map[qcKey]*qcEntry
	lru      *list.List // *qcEntry; front = most recently used
	// gen is the newest snapshot generation a put carried; every resident
	// entry belongs to it.
	gen uint64

	hits, misses, evictions, invalidations int64
}

type qcKey struct {
	gen    uint64
	query  string
	format results.Format
}

type qcEntry struct {
	key  qcKey
	body []byte
	// rows is how many result rows the document serializes, credited to
	// the rows-streamed metric on every replay so cached and executed
	// deliveries count alike.
	rows int64
	elem *list.Element
}

// newQueryCache returns a cache bounded to budget bytes, or nil (disabled,
// nil-safe everywhere) for a non-positive budget. Individual documents are
// capped at 1/8 of the budget: one huge dump must not wipe the dashboard
// set the cache exists for.
func newQueryCache(budget int64) *queryCache {
	if budget <= 0 {
		return nil
	}
	maxEntry := budget / 8
	if maxEntry < 1 {
		maxEntry = 1
	}
	return &queryCache{
		budget:   budget,
		maxEntry: maxEntry,
		m:        map[qcKey]*qcEntry{},
		lru:      list.New(),
	}
}

// normalizeQuery collapses runs of whitespace so that cosmetic formatting
// differences (indentation, newlines) between otherwise identical queries
// share one cache entry. Whitespace is NOT cosmetic inside quoted
// literals ("a  b" vs "a b") or around '#' comments (a newline ends the
// comment, so collapsing it swallows whatever follows into it) — queries
// containing any of those characters are keyed verbatim rather than
// risking two semantically different queries sharing one document. It
// deliberately stops there: anything deeper (variable renaming, pattern
// reordering) would need a full parse and buys little for
// machine-generated dashboard queries.
func normalizeQuery(src string) string {
	if strings.ContainsAny(src, "#\"'") {
		return src
	}
	return strings.Join(strings.Fields(src), " ")
}

// get returns the cached document for the key and its row count, or a
// nil body. The caller owns nothing: the returned slice is shared and
// must only be read.
func (c *queryCache) get(gen uint64, query string, format results.Format) ([]byte, int64) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[qcKey{gen: gen, query: query, format: format}]
	if !ok {
		c.misses++
		return nil, 0
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.body, e.rows
}

// put retains a successfully serialized document, evicting LRU entries
// over budget. A document of a newer generation than the resident ones
// first drops them all (they can never match again); one of an older
// generation is refused. Oversized documents are dropped silently;
// body must not be mutated after the call.
func (c *queryCache) put(gen uint64, query string, format results.Format, body []byte, rows int64) {
	if c == nil || int64(len(body)) > c.maxEntry {
		return
	}
	key := qcKey{gen: gen, query: query, format: format}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case gen < c.gen:
		return
	case gen > c.gen:
		c.invalidations += int64(len(c.m))
		clear(c.m)
		c.lru.Init()
		c.used = 0
		c.gen = gen
	}
	if old, ok := c.m[key]; ok {
		// A concurrent miss of the same query raced us here; the bodies
		// are byte-identical (same snapshot, same serializer), keep the
		// incumbent.
		c.lru.MoveToFront(old.elem)
		return
	}
	e := &qcEntry{key: key, body: body, rows: rows}
	e.elem = c.lru.PushFront(e)
	c.m[key] = e
	c.used += int64(len(body))
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*qcEntry)
		if ev == e {
			break
		}
		c.lru.Remove(back)
		delete(c.m, ev.key)
		c.used -= int64(len(ev.body))
		c.evictions++
	}
}

// stats reports the cache's counters and residency; all zeroes when the
// cache is disabled. The budget is the caller's to fill.
func (c *queryCache) stats() ResultCacheSnapshot {
	if c == nil {
		return ResultCacheSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheSnapshot{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: int64(len(c.m)), BytesUsed: c.used,
	}
}

// resultTee forwards writes to w and records the forwarded bytes for the
// result cache, under the key a cache miss looked up, until they exceed
// max; then it stops recording (the response itself is unaffected). It
// sits upstream of any content coding, so it records the uncompressed
// document.
type resultTee struct {
	w      io.Writer
	gen    uint64
	norm   string
	format results.Format

	buf      []byte
	max      int64
	overflow bool
}

func (t *resultTee) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	switch {
	case t.overflow:
	case int64(len(t.buf)+n) > t.max:
		t.overflow, t.buf = true, nil
	default:
		t.buf = append(t.buf, p[:n]...)
	}
	return n, err
}
