package engine

import (
	"container/list"
	"sync"

	"repro/internal/bitmat"
)

// MatCache is the store-level, cross-query BitMat materialization cache:
// a bounded, cost-weighted LRU of pristine (unmasked, unpruned) matrices
// keyed on (normalized pattern, orientation) within one index-snapshot
// generation. It amortizes the paper's dominant setup cost — per-pattern
// BitMat construction (Tinit) — across the concurrent queries of a
// serving workload, where OPTIONAL-heavy dashboards repeat the same small
// set of subpatterns.
//
// Concurrency contract:
//
//   - Entries are single-flight: concurrent queries needing the same
//     pattern block on one build instead of racing duplicate work.
//   - Cached matrices are immutable. Queries clone before applying their
//     active-pruning masks and semi-join pruning, so no query ever
//     observes another's pruning and parallel execution stays
//     byte-identical to sequential.
//   - Invalidation is generation-based: the owning Store bumps the
//     generation on every index rebuild (Advance), which atomically
//     retires every cached entry. A query still running against a retired
//     snapshot bypasses the cache entirely — it can neither read a
//     new-generation matrix nor poison the cache with an old one.
//
// The zero budget is not meaningful here; the owning layer (lbr.Store)
// resolves its CacheBudget option and passes the byte bound, or keeps the
// cache nil to disable caching. All methods are nil-safe.
type MatCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	gen    uint64
	m      map[matKey]*matEntry
	lru    *list.List // *matEntry; front = most recently used

	// Counters, guarded by mu (every path that updates them holds it).
	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
	staleBypasses int64
	oversize      int64
}

type matKey struct {
	pat    string
	orient uint8
}

type matEntry struct {
	key  matKey
	once sync.Once
	mat  *bitmat.Matrix
	cost int64
	// built flips under the cache mutex once the matrix and cost are
	// accounted; entries still being built are never evicted (their cost
	// is unknown and a builder holds a pointer to them).
	built bool
	elem  *list.Element
}

// NewMatCache returns a cache bounded to budget bytes. A non-positive
// budget returns nil — the disabled cache — which every method accepts.
func NewMatCache(budget int64) *MatCache {
	if budget <= 0 {
		return nil
	}
	return &MatCache{
		budget: budget,
		m:      map[matKey]*matEntry{},
		lru:    list.New(),
	}
}

// Advance starts generation g: it atomically retires every cached entry
// (they belong to the previous index snapshot) and returns the view new
// engine snapshots read through. Queries already holding an older view
// bypass the cache from this moment on. Nil-safe: a nil cache yields a
// nil view, and a nil view builds directly.
func (c *MatCache) Advance(g uint64) *MatCacheView {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = g
	c.invalidations += int64(len(c.m))
	c.m = map[matKey]*matEntry{}
	c.lru.Init()
	c.used = 0
	return &MatCacheView{c: c, gen: g}
}

// CacheStats is a point-in-time snapshot of the cache counters, exposed
// through lbr.Store.CacheStats and the server's /metrics.
type CacheStats struct {
	// Hits counts gets served from an existing entry (including callers
	// that joined an in-flight single-flight build).
	Hits int64 `json:"hits"`
	// Misses counts gets that created the entry and built the matrix.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the cost-weighted LRU bound.
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries retired by generation advances
	// (index rebuilds after writes).
	Invalidations int64 `json:"invalidations"`
	// StaleBypasses counts builds done outside the cache by queries still
	// running against a retired snapshot generation.
	StaleBypasses int64 `json:"stale_bypasses"`
	// FirstTouches is always 0: every load admits on its first touch.
	// The field stays because the benchmark reports it as
	// engine.cache_first_touches; it goes once that metric does.
	FirstTouches int64 `json:"first_touches"`
	// Oversize counts built matrices larger than the whole budget, which
	// are returned to their query but never retained.
	Oversize int64 `json:"oversize"`
	// Entries and BytesUsed describe the current residency; Budget and
	// Generation the configuration and the live snapshot generation.
	// BytesUsed is the sum of matCost: 16 B of directory per live row
	// and the compressed payload. It leaves out each live row's
	// bitvec.Row header (about 80 B), so it understates the heap the
	// cache pins: on the benchmark's analytic-scan workload it reads
	// 19.1 MB, while disabling the cache lowered the live heap by about
	// 73 MB.
	Entries    int    `json:"entries"`
	BytesUsed  int64  `json:"bytes_used"`
	Budget     int64  `json:"budget"`
	Generation uint64 `json:"generation"`
}

// Stats snapshots the counters. A nil cache reports zeroes.
func (c *MatCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		StaleBypasses: c.staleBypasses,
		Oversize:      c.oversize,
		Entries:       len(c.m),
		BytesUsed:     c.used,
		Budget:        c.budget,
		Generation:    c.gen,
	}
}

// cacheOutcome classifies one store-tier cache interaction, so the load
// path can record in a trace span why a pattern's matrix came from where
// it did. Outcomes are string constants: attaching one to a span
// allocates nothing.
type cacheOutcome string

const (
	outcomeUncached cacheOutcome = "uncached"     // no cache view (disabled store tier)
	outcomeHit      cacheOutcome = "store-hit"    // served from an existing entry
	outcomeMiss     cacheOutcome = "store-miss"   // entry created, matrix built and admitted
	outcomeStale    cacheOutcome = "stale-bypass" // query runs against a retired generation
)

// MatCacheView is one snapshot generation's read/write handle on the
// cache. An Engine holds the view created by the Advance that accompanied
// its index snapshot; the pairing is what pins queries to their own
// generation's matrices.
type MatCacheView struct {
	c   *MatCache
	gen uint64
}

// get returns the shared pristine matrix for the pattern, or a nil
// matrix when the cache declines and the caller should build directly —
// with its load-time masks folded in. The cache declines only for a nil
// view and for a retired snapshot generation (the query must neither
// read a new-generation matrix nor resurrect an old one); every other
// load admits the pattern on its first touch. The checks and the
// hit/miss bookkeeping happen under one lock acquisition; the returned
// outcome names which of these paths was taken.
//
// A returned matrix must be treated as read-only — callers clone before
// pruning. Oversize results are shared too: every waiter that joined the
// single-flight build holds the same matrix even though it was
// immediately dropped from the map.
//
// The entry is built single-flight: the first getter runs build() with no
// lock held; concurrent getters for the same key block on the entry, not
// on the cache, so a slow materialization never serializes unrelated
// loads.
func (v *MatCacheView) get(pat string, orient uint8, build func() *bitmat.Matrix) (*bitmat.Matrix, cacheOutcome) {
	if v == nil {
		return nil, outcomeUncached
	}
	c := v.c
	key := matKey{pat: pat, orient: orient}
	c.mu.Lock()
	if v.gen != c.gen {
		c.staleBypasses++
		c.mu.Unlock()
		return nil, outcomeStale
	}
	outcome := outcomeMiss
	e, ok := c.m[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		outcome = outcomeHit
	} else {
		e = &matEntry{key: key}
		e.elem = c.lru.PushFront(e)
		c.m[key] = e
		c.misses++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		mat := build()
		cost := matCost(mat)
		c.mu.Lock()
		defer c.mu.Unlock()
		e.mat, e.cost = mat, cost
		// The generation may have advanced (or the entry been evicted)
		// while we built: then the entry is no longer in the map and must
		// not be accounted — the waiting getters still use the matrix.
		if c.m[key] != e {
			return
		}
		if cost > c.budget {
			c.oversize++
			delete(c.m, key)
			c.lru.Remove(e.elem)
			return
		}
		e.built = true
		c.used += cost
		c.evictLocked(e)
	})
	return e.mat, outcome
}

// evictLocked drops least-recently-used built entries until the cache is
// within budget. keep (the entry just inserted) and entries still being
// built are skipped; the caller holds c.mu.
func (c *MatCache) evictLocked(keep *matEntry) {
	el := c.lru.Back()
	for c.used > c.budget && el != nil {
		prev := el.Prev()
		e := el.Value.(*matEntry)
		if e != keep && e.built {
			delete(c.m, e.key)
			c.lru.Remove(el)
			c.used -= e.cost
			c.evictions++
		}
		el = prev
	}
}

// matCost estimates the resident bytes of a cached matrix: its directory
// (dirCost) and the compressed row payloads (4-byte words in the hybrid
// encoding). It follows what the matrix holds, not its dimensions, so a
// budget scales with the data the matrices carry. It only weighs the LRU
// — a rough but monotone estimate is enough for eviction order. Row
// headers are left out (see CacheStats.BytesUsed): counting them makes a
// budget-sized sweep evict its own working set.
func matCost(mat *bitmat.Matrix) int64 {
	if mat == nil {
		return dirCost(0)
	}
	return dirCost(mat.LiveRows()) + mat.WireSize()*4
}

// dirCost estimates the bytes of a matrix header and a directory of rows
// live rows: 16 B each, for the 4-byte id, the 8-byte row pointer and the
// 4-byte set-bit count. It is also what a clone of that many rows copies.
func dirCost(rows int) int64 {
	return 64 + int64(rows)*16
}
