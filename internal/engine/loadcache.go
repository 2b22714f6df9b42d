package engine

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/bitmat"
)

// Matrix orientations a loadCache distinguishes. Two branches whose plans
// orient the same pattern differently (the predicate swap of a ?s ?p ?o
// expansion can flip RowVar choices) get separate entries; both are built
// once each.
const (
	orientSO uint8 = iota // rows = subjects (or the pattern's only layout)
	orientOS              // rows = objects
)

// loadCache shares the BitMat materialization of triple patterns that
// recur across the UNF branches of one query execution — above all the
// cloned non-expanded patterns of a ?s ?p ?o rewrite, which every
// per-predicate branch would otherwise rebuild from the pair tables. The
// cache holds the pristine (unmasked, unpruned) matrix per normalized
// pattern; every branch clones it (cheap: compressed rows are immutable
// and shared, only the live-row directory is copied) and applies its own
// active-pruning masks and semi-join pruning to the clone, so branches
// never observe each other's pruning.
//
// The cache is keyed on the pattern's serialized form within one execution
// over one immutable index snapshot, so the index-snapshot component of
// the key is implicit. Entries are single-flight: concurrent branches
// that need the same pattern block on one build instead of racing
// duplicate work.
type loadCache struct {
	shared map[string]bool // patterns occurring in more than one branch
	mu     sync.Mutex
	m      map[loadKey]*loadEntry
}

type loadKey struct {
	pat    string
	orient uint8
}

type loadEntry struct {
	once sync.Once
	mat  *bitmat.Matrix
}

// newLoadCache scans the branches for patterns that occur in at least two
// of them (occurrences inside one branch do not count: a branch loads each
// of its patterns once). It returns nil when nothing recurs — the common
// single-branch query then skips every cache code path.
func newLoadCache(execs []execBranch) *loadCache {
	if len(execs) < 2 {
		return nil
	}
	counts := map[string]int{}
	for _, eb := range execs {
		seen := map[string]bool{}
		for _, tp := range algebra.TreePatterns(eb.b.Tree) {
			k := tp.String()
			if !seen[k] {
				seen[k] = true
				counts[k]++
			}
		}
	}
	shared := map[string]bool{}
	for k, n := range counts {
		if n > 1 {
			shared[k] = true
		}
	}
	if len(shared) == 0 {
		return nil
	}
	return &loadCache{shared: shared, m: map[loadKey]*loadEntry{}}
}

// get returns the pristine matrix for a shared pattern, building it
// single-flight on first use, or nil when the pattern is not shared (or
// the cache itself is nil) — the caller then materializes directly, masks
// applied during the build as before. Callers must treat a non-nil result
// as read-only and Clone before pruning.
func (c *loadCache) get(pat string, orient uint8, build func() *bitmat.Matrix) *bitmat.Matrix {
	if c == nil || !c.shared[pat] {
		return nil
	}
	key := loadKey{pat: pat, orient: orient}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &loadEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.mat = build() })
	return e.mat
}

// cachedPristine returns a private pristine materialization of the pattern
// through the two cache tiers — the per-query branch cache first (patterns
// recurring across this query's UNF branches), then the store-level
// cross-query MatCache — or nil when both tiers decline, in which case
// the caller builds directly (with its masks folded into the build,
// exactly as before caching existed). Tier results are shared and
// therefore cloned here, so the caller may prune the returned matrix
// freely. masked tells the store tier whether the caller has load-time
// masks to fold into a direct build; it then admits the pattern only on
// repeated touches (see MatCacheView.get).
//
// The second return names which tier served (or declined) the load — a
// string constant attached to the pattern's trace span, free when no
// tracer is attached.
func (e *Engine) cachedPristine(qc *loadCache, patKey string, orient uint8, masked bool, build func() *bitmat.Matrix) (*bitmat.Matrix, string) {
	if base := qc.get(patKey, orient, e.storeBuild(patKey, orient, build)); base != nil {
		return base.Clone(), "query-shared"
	}
	mat, outcome := e.mc.get(patKey, orient, masked, build)
	if mat != nil {
		return mat.Clone(), string(outcome)
	}
	return nil, string(outcome)
}

// storeBuild wraps a pristine build so a per-query cache miss still fills
// (or reads) the store-level tier: the per-query entry then holds the
// store cache's shared matrix — both tiers treat it as read-only, and
// branches clone before pruning. The per-query tier only engages for
// patterns recurring across branches, which justifies admitting them to
// the store tier on first touch (masked=false): the pristine build is
// about to be shared either way.
func (e *Engine) storeBuild(patKey string, orient uint8, build func() *bitmat.Matrix) func() *bitmat.Matrix {
	if e.mc == nil {
		return build
	}
	return func() *bitmat.Matrix {
		if mat, _ := e.mc.get(patKey, orient, false, build); mat != nil {
			return mat
		}
		return build()
	}
}

// cachedOr returns a private copy of the cached materialization of the
// pattern — a clone, so the caller may prune it freely — or build()'s
// result directly when no cache tier covers the pattern. Callers here
// have no load-time masks (build() already is the final matrix), so the
// store tier admits on first touch. The second return is the cache
// source for the pattern's trace span.
func (e *Engine) cachedOr(cache *loadCache, patKey string, orient uint8, build func() *bitmat.Matrix) (*bitmat.Matrix, string) {
	m, src := e.cachedPristine(cache, patKey, orient, false, build)
	if m != nil {
		return m, src
	}
	// Both tiers declined; build directly. src carries the decline reason
	// (uncached / stale-bypass), which is exactly what the span wants.
	return build(), src
}
