package engine

import (
	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/trace"
)

// Matrix orientations the MatCache distinguishes. Two branches whose plans
// orient the same pattern differently (the predicate swap of a ?s ?p ?o
// expansion can flip RowVar choices) get separate entries; both are built
// once each.
const (
	orientSO uint8 = iota // rows = subjects (or the pattern's only layout)
	orientOS              // rows = objects
)

// cachedPristine returns a private copy of the pattern's pristine
// materialization through the store-level MatCache, restricted to the
// rows rowMask keeps (every row for a nil mask), or nil when the cache
// declines (no cache view, or a retired generation), in which case the
// caller builds directly with its masks folded into the build. The cached
// matrix is shared and therefore cloned here — only the directory entries
// the mask keeps — so the caller may prune the returned matrix freely.
// Every load admits the pattern on its first touch, so a pattern
// recurring across the UNF branches of one query is built once: the
// branches run in order, and a later branch finds the entry an earlier
// one admitted.
//
// The second return names the cache outcome — a string constant attached
// to the pattern's trace span. sp, when non-nil, is that span: a clone
// records on it base_rows, the shared matrix's live rows, and
// clone_bytes, the bytes of the directory entries it copied (rows are
// shared, so a masked clone copies only what its mask keeps).
func (e *Engine) cachedPristine(patKey string, orient uint8, rowMask *bitvec.Bits, build func() *bitmat.Matrix, sp *trace.Span) (*bitmat.Matrix, string) {
	mat, outcome := e.mc.get(patKey, orient, build)
	if mat == nil {
		return nil, string(outcome)
	}
	var c *bitmat.Matrix
	if rowMask != nil {
		c = mat.CloneRows(rowMask)
	} else {
		c = mat.Clone()
	}
	if sp != nil {
		sp.Set("base_rows", mat.LiveRows())
		sp.Set("clone_bytes", dirCost(c.LiveRows()))
	}
	return c, string(outcome)
}

// cachedOr returns a private copy of the cached materialization of the
// pattern — a clone, so the caller may prune it freely — or build()'s
// result directly when the cache declines. Callers here have no load-time
// masks: build() already is the final matrix. The second return is the
// cache outcome for the pattern's trace span, and sp is that span, as for
// cachedPristine.
func (e *Engine) cachedOr(patKey string, orient uint8, build func() *bitmat.Matrix, sp *trace.Span) (*bitmat.Matrix, string) {
	m, src := e.cachedPristine(patKey, orient, nil, build, sp)
	if m != nil {
		return m, src
	}
	// The cache declined; build directly. src carries the decline reason
	// (uncached / stale-bypass), which is exactly what the span wants.
	return build(), src
}
