package engine

import (
	"errors"

	"repro/internal/algebra"
)

// Typed sentinels for the query classes the engine rejects by design (the
// algebra layer contributes algebra.ErrPredicateJoin and
// *algebra.UnsafeFilterError). Unsupported is the one classifier over
// them, shared by the differential fuzzers and the server's error mapping,
// so a message rewording can never silently widen what either tolerates.
var (
	// ErrThreeVarPattern reports a triple pattern with three variables
	// that survived to BitMat loading un-expanded: the two-dimensional
	// per-predicate layout has no single matrix for it (the expansion in
	// fullscan.go handles the supported cases before execution).
	ErrThreeVarPattern = errors.New("engine: pattern with three variables is not supported")

	// ErrExpansionTooLarge reports a per-predicate expansion of
	// three-variable patterns whose branch product exceeds
	// maxFullScanBranches.
	ErrExpansionTooLarge = errors.New("engine: three-variable expansion exceeds the branch cap")
)

// Unsupported reports whether err is a by-design rejection of the query
// rather than an engine failure: a predicate join, an un-expandable or
// oversized three-variable pattern, or a filter outside the supported
// scope. The naive reference evaluator accepts all of these.
func Unsupported(err error) bool {
	var uf *algebra.UnsafeFilterError
	return errors.Is(err, algebra.ErrPredicateJoin) ||
		errors.Is(err, ErrThreeVarPattern) ||
		errors.Is(err, ErrExpansionTooLarge) ||
		errors.As(err, &uf)
}
