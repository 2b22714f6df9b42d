package engine

import (
	"repro/internal/bitmat"
)

// Matrix orientations the MatCache distinguishes. Two branches whose plans
// orient the same pattern differently (the predicate swap of a ?s ?p ?o
// expansion can flip RowVar choices) get separate entries; both are built
// once each.
const (
	orientSO uint8 = iota // rows = subjects (or the pattern's only layout)
	orientOS              // rows = objects
)

// cachedPristine returns a private pristine materialization of the pattern
// through the store-level MatCache, or nil when the cache declines, in
// which case the caller builds directly (with its masks folded into the
// build, exactly as before caching existed). The cached matrix is shared
// and therefore cloned here, so the caller may prune the returned matrix
// freely. masked tells the cache whether the caller has load-time masks
// to fold into a direct build; it then admits the pattern only on
// repeated touches (see MatCacheView.get). A pattern recurring across the
// UNF branches of one query is shared this way too: the branches run in
// order, so a later branch finds the entry an earlier one admitted.
//
// The second return names the cache outcome — a string constant attached
// to the pattern's trace span, free when no tracer is attached.
func (e *Engine) cachedPristine(patKey string, orient uint8, masked bool, build func() *bitmat.Matrix) (*bitmat.Matrix, string) {
	mat, outcome := e.mc.get(patKey, orient, masked, build)
	if mat != nil {
		mat = mat.Clone()
	}
	return mat, string(outcome)
}

// cachedOr returns a private copy of the cached materialization of the
// pattern — a clone, so the caller may prune it freely — or build()'s
// result directly when the cache declines. Callers here have no load-time
// masks (build() already is the final matrix), so the cache admits on
// first touch. The second return is the cache outcome for the pattern's
// trace span.
func (e *Engine) cachedOr(patKey string, orient uint8, build func() *bitmat.Matrix) (*bitmat.Matrix, string) {
	m, src := e.cachedPristine(patKey, orient, false, build)
	if m != nil {
		return m, src
	}
	// The cache declined; build directly. src carries the decline reason
	// (uncached / stale-bypass), which is exactly what the span wants.
	return build(), src
}
