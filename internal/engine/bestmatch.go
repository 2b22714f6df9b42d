package engine

import (
	"encoding/binary"
	"sort"
	"strings"
)

// subsumes reports r2 < r1 in the paper's ordering: every non-null binding
// of r2 appears identically in r1, and r1 has strictly more non-null
// bindings (Section 3.1).
func subsumes(r1, r2 Row) bool {
	more := false
	for i := range r2 {
		switch {
		case r2.IsNull(i):
			if !r1.IsNull(i) {
				more = true
			}
		case r1.IsNull(i) || r1[i] != r2[i]:
			return false
		}
	}
	return more
}

// bestMatch removes every subsumed row (minimum union), preserving the
// rows' relative order.
func bestMatch(rows []Row) []Row {
	dead := bestMatchDead(rows, nil)
	if dead == nil {
		return rows
	}
	out := rows[:0]
	for i, r := range rows {
		if !dead[i] {
			out = append(out, r)
		}
	}
	return out
}

// bestMatchGroups runs the minimum union separately inside each
// distribution group whose need flag is set, preserving global row order.
// Rows of different groups never subsume each other: distinct groups are
// genuine UNION alternatives, and SPARQL's bag union keeps their rows even
// when one binds strictly more than another — only the branches a rule-3
// rewrite (or a ?s ?p ?o expansion under OPTIONAL) split apart owe each
// other spurious-result removal.
//
// failedCols restricts which rows may be removed, and by whom: a row is a
// rewrite artifact — removable — only where one of its own rule-3 splits
// demonstrably failed (witness columns all NULL), and only a subsumer
// that binds at least one of those failed witness columns proves the
// artifact (it shows a sibling alternative of that split matched in the
// same context, which is exactly when the distribution fabricated the
// NULL row). A subsumer whose extra columns belong only to splits that
// MATCHED in the victim is a different genuine solution of the bag union
// — e.g. OPTIONAL { {?a <p> ?z} UNION {?master <p> ?z} }, where the
// poorer alternative's matches must survive the richer alternative's rows
// — and a split whose every alternative failed produced a genuine NULL,
// not an artifact. Both cases were found by FuzzQueryDifferential / the
// differential union sweep.
func bestMatchGroups(rows []Row, groups []int32, need []bool, failedCols [][]int) []Row {
	idxs := make([][]int, len(need))
	for i, g := range groups {
		if need[g] {
			idxs[g] = append(idxs[g], i)
		}
	}
	var dead map[int]bool
	for g, list := range idxs {
		if !need[g] || len(list) <= 1 {
			continue
		}
		sub := make([]Row, len(list))
		var subFailed [][]int
		if failedCols != nil {
			subFailed = make([][]int, len(list))
		}
		for k, ri := range list {
			sub[k] = rows[ri]
			if failedCols != nil {
				subFailed[k] = failedCols[ri]
			}
		}
		subDead := bestMatchDead(sub, subFailed)
		if subDead == nil {
			continue
		}
		for k, d := range subDead {
			if d {
				if dead == nil {
					dead = map[int]bool{}
				}
				dead[list[k]] = true
			}
		}
	}
	if dead == nil {
		return rows
	}
	out := rows[:0]
	for i, r := range rows {
		if !dead[i] {
			out = append(out, r)
		}
	}
	return out
}

// filterRows keeps the rows (and their group tags and failed-witness
// column sets) whose keep flag is set, in place.
func filterRows(rows []Row, groups []int32, failedCols [][]int, keep []bool) ([]Row, []int32, [][]int) {
	outRows := rows[:0]
	outGroups := groups[:0]
	outFailed := failedCols[:0]
	for i, r := range rows {
		if keep[i] {
			outRows = append(outRows, r)
			outGroups = append(outGroups, groups[i])
			outFailed = append(outFailed, failedCols[i])
		}
	}
	return outRows, outGroups, outFailed
}

// bestMatchDead computes the subsumed-row set of the minimum union. Rows
// are grouped by their NULL column mask; a row can only be subsumed by a
// row whose mask is a strict subset, so only those group pairs are probed,
// each through a hash of the candidate's non-null projection.
//
// failedCols, when non-nil, holds per row the witness columns of its
// failed rule-3 splits: the row may then be marked dead only by a
// subsumer binding at least one of those columns (see bestMatchGroups),
// and a row with none is never removed. Any row can still act as a
// subsumer. The result is nil when the input is too small to subsume
// anything.
func bestMatchDead(rows []Row, failedCols [][]int) []bool {
	if len(rows) <= 1 {
		return nil
	}
	width := len(rows[0])
	maskOf := func(r Row) string {
		m := make([]byte, width)
		for i := range r {
			if r.IsNull(i) {
				m[i] = '1'
			} else {
				m[i] = '0'
			}
		}
		return string(m)
	}
	groups := map[string][]int{}
	for i, r := range rows {
		groups[maskOf(r)] = append(groups[maskOf(r)], i)
	}
	masks := make([]string, 0, len(groups))
	for m := range groups {
		masks = append(masks, m)
	}
	sort.Strings(masks)

	subsetOf := func(sub, super string) bool {
		// sub has MORE nulls than super: super's nulls must all be nulls in
		// sub, and sub must have strictly more.
		strict := false
		for i := 0; i < width; i++ {
			if super[i] == '1' && sub[i] == '0' {
				return false
			}
			if sub[i] == '1' && super[i] == '0' {
				strict = true
			}
		}
		return strict
	}
	// Projection of a row onto the non-null columns of mask m.
	projKey := func(r Row, m string) string {
		out := make([]byte, 0, len(r)*4)
		for i := 0; i < width; i++ {
			if m[i] == '0' {
				out = binary.LittleEndian.AppendUint32(out, r[i])
			}
		}
		return string(out)
	}

	dead := make([]bool, len(rows))
	for _, subMask := range masks {
		if !hasNull(subMask) {
			continue // rows without nulls cannot be subsumed
		}
		for _, superMask := range masks {
			if subMask == superMask || !subsetOf(subMask, superMask) {
				continue
			}
			// Index the potential subsumers by their projection onto the
			// sub group's non-null columns.
			index := map[string]bool{}
			for _, ri := range groups[superMask] {
				if !dead[ri] {
					index[projKey(rows[ri], subMask)] = true
				}
			}
			if len(index) == 0 {
				continue
			}
			for _, ri := range groups[subMask] {
				if failedCols != nil {
					// The subsumer's extra columns (NULL in the victim's
					// mask, bound in the subsumer's) must include a failed
					// witness column of this victim.
					proves := false
					for _, c := range failedCols[ri] {
						if subMask[c] == '1' && superMask[c] == '0' {
							proves = true
							break
						}
					}
					if !proves {
						continue
					}
				}
				if !dead[ri] && index[projKey(rows[ri], subMask)] {
					dead[ri] = true
				}
			}
		}
	}
	return dead
}

func hasNull(mask string) bool {
	for i := 0; i < len(mask); i++ {
		if mask[i] == '1' {
			return true
		}
	}
	return false
}

// dedupNullUnionKeep collapses the duplicate rows a rule-3 rewrite (including
// the per-predicate union a rewritten three-variable pattern expands
// into) introduces: a master solution whose distributed OPTIONAL side
// failed emits one identical nulled row per alternative of that split,
// and the minimum union keeps it once. Collapsing is scoped tightly so
// genuine bag duplicates survive: only within one DupGroup (branches that
// differ solely in rule-3 choices — genuine UNION alternatives have
// distinct groups), and keyed on the choices of every split that
// *matched* in the row. A split whose witness variables are all NULL
// failed, so the alternative chosen there is irrelevant and is excluded
// from the key — which also drops splits nested inside a failed subtree,
// aligning branches whose split lists differ. Every rule-3 split carries
// at least one witness column: an alternative whose own variables all
// occur in the master gets a hidden synthetic witness variable
// (algebra.SynthWitnessVar) bound at join time exactly when the
// alternative matched, so failure is always provable here. A split that
// still resolves no witness columns (none of its variables are in the row
// layout) cannot prove failure and conservatively counts as matched.
// Under full projection (which is where this runs; SELECT projection
// happens later) two distinct master solutions never render identically,
// so this key is exact. The results are aligned with rows: keep (true =
// the row survives the collapse) and failedCols (the witness columns of
// the row's failed splits — those whose witness is all NULL in the row).
// Rows with failed splits are the rewrite's artifact candidates: the
// cross-branch minimum union may remove them, but only on the evidence of
// a subsumer binding one of those columns (see bestMatchGroups) — a row
// whose every split matched is a genuine solution of the original query.
func dedupNullUnionKeep(rows []Row, metas []*dupMeta) (keep []bool, failedCols [][]int) {
	seen := map[string]bool{}
	keep = make([]bool, len(rows))
	failedCols = make([][]int, len(rows))
	for i, r := range rows {
		keep[i] = true
		m := metas[i]
		if m != nil && len(m.splits) > 0 {
			var fcols []int
			var kb strings.Builder
			kb.WriteString(m.group)
			for _, sp := range m.splits {
				if len(sp.cols) > 0 && allNull(r, sp.cols) {
					fcols = append(fcols, sp.cols...)
					continue
				}
				kb.WriteByte(0)
				kb.WriteString(sp.id)
				kb.WriteByte('=')
				kb.WriteString(sp.choice)
			}
			if len(fcols) > 0 {
				failedCols[i] = fcols
				kb.WriteByte(0)
				kb.WriteString(r.key())
				k := kb.String()
				if seen[k] {
					keep[i] = false
					continue
				}
				seen[k] = true
			}
		}
	}
	return keep, failedCols
}

func allNull(r Row, cols []int) bool {
	for _, c := range cols {
		if !r.IsNull(c) {
			return false
		}
	}
	return true
}

// dedupNullified collapses rows that were changed by nullification and are
// now identical. Nullification can turn several partial slave matches of
// one master context into the same all-NULL row; under full projection two
// distinct master contexts can never produce identical rows (triples are
// unique), so content-keyed collapsing is exact.
func dedupNullified(rows []Row, changed []bool) ([]Row, []bool) {
	seen := map[string]struct{}{}
	var buf []byte
	outRows := rows[:0]
	outChanged := changed[:0]
	for i, r := range rows {
		if changed[i] {
			buf = r.appendKey(buf[:0])
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
		}
		outRows = append(outRows, r)
		outChanged = append(outChanged, changed[i])
	}
	return outRows, outChanged
}
