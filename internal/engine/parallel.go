package engine

import (
	"runtime"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/planner"
)

// parallelMinTriples gates the partitioned join: a multi-way join whose
// patterns hold fewer surviving triples than this runs sequentially,
// since goroutine fan-out would cost more than the work itself. A var
// (not const) so tests can force the parallel path on small fixtures.
var parallelMinTriples int64 = 1024

// EffectiveWorkers resolves the worker-pool size an Options selects:
// Workers when positive, GOMAXPROCS when zero, and 1 (sequential) for
// negative values — a negative count is a configuration mistake, not a
// request for unbounded fan-out. The store's Options.EffectiveWorkers
// resolves through it too.
func (o Options) EffectiveWorkers() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers < 0:
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// partitionFactor is the oversubscription of the adaptive root
// partitioner: with w workers the partitioner aims for factor*w
// weight-balanced partitions, so that when a partition still turns out
// heavier than estimated (weights count root triples, not join fan-out)
// the pool rebalances around it instead of idling. Any factor yields the
// same rows in the same order: partitions concatenate in scan order.
const partitionFactor = 4

// workers resolves the effective worker-pool size. A result of 1 selects
// the sequential code paths everywhere.
func (e *Engine) workers() int { return e.opts.EffectiveWorkers() }

// runLimited executes fns with at most limit goroutines in flight. With
// limit <= 1 (or a single function) it degenerates to an in-order
// sequential loop, so callers need no separate sequential path.
func runLimited(limit int, fns []func()) {
	if limit <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	if limit > len(fns) {
		limit = len(fns)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, fn := range fns {
		sem <- struct{}{}
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			defer func() { <-sem }()
			f()
		}(fn)
	}
	wg.Wait()
}

// rootPartitions splits the root pattern's surviving triples into
// contiguous ranges over its enumeration axis (rows for two-variable
// patterns, the single row's columns for one-variable patterns). Ranges
// are half-open [lo, hi) and, concatenated in order, cover the full axis
// scan order, so per-partition results concatenate to exactly the
// sequential output regardless of the partition count.
//
// The split is adaptive: it targets factor*w partitions (oversubscribing
// the pool so stragglers rebalance) and sizes each partition from the
// root's per-row triple counts — cheap prefix sums over the bit-matrix
// rows, each row's count being O(1) metadata of the compressed codec — so
// one skewed predicate (a few huge rows among many small ones) no longer
// serializes the join behind a single worker the way uniform row-index
// splits did. A partition never splits inside one row; a single row
// holding most of the root is the remaining (structural) serialization.
//
// A nil result means the join is not worth (or not safe to) partitioning:
// a single worker, a zero-variable root, or too few units.
func rootPartitions(plan *planner.Plan, stps []*tpState, w, factor int) (root int, parts [][2]int) {
	if w <= 1 || len(stps) == 0 {
		return -1, nil
	}
	var total int64
	for _, st := range stps {
		total += st.count()
	}
	if total < parallelMinTriples {
		return -1, nil
	}
	tpIdx := make([]int, len(stps))
	for i, st := range stps {
		tpIdx[i] = st.idx
	}
	root = plan.JoinRoot(tpIdx)
	if root < 0 || stps[root].mat == nil {
		return -1, nil
	}
	st := stps[root]
	target := w * factor

	if st.rowVar == "" {
		// One-variable root: the units are the single row's set columns,
		// one root binding each — every unit weighs the same, so uniform
		// unit-count boundaries are already weight-balanced. One bounded
		// walk collects only the 2*target boundary units (each chunk's
		// first and last) instead of materializing all n of them.
		row := st.mat.Row(0)
		if row == nil {
			return -1, nil
		}
		n := row.Count()
		if n < 2 {
			return -1, nil
		}
		if target > n {
			target = n
		}
		bounds := make([]int, 0, 2*target)
		for k := 0; k < target; k++ {
			bounds = append(bounds, k*n/target, (k+1)*n/target-1)
		}
		vals := make([]int, len(bounds))
		bi, idx := 0, 0
		row.ForEach(func(u int) bool {
			for bi < len(bounds) && bounds[bi] == idx {
				vals[bi] = u
				bi++
			}
			idx++
			return bi < len(bounds)
		})
		parts = make([][2]int, 0, target)
		for k := 0; k < target; k++ {
			parts = append(parts, [2]int{vals[2*k], vals[2*k+1] + 1})
		}
		return root, parts
	}

	// Two-variable root: units are the non-empty rows, weighted by their
	// set-bit counts (the number of root bindings the row contributes).
	// Two streaming passes keep memory at O(target): the first gathers
	// the row count and total weight (each row's count is O(1) metadata
	// of the compressed codec), the second emits cut boundaries on the
	// fly instead of materializing per-row arrays.
	var n int
	var rootTotal int64
	st.mat.ForEachRow(func(r int, row *bitvec.Row) bool {
		n++
		rootTotal += int64(row.Count())
		return true
	})
	if n < 2 {
		return -1, nil
	}
	if target > n {
		target = n
	}
	// Greedy prefix-sum cut: close a partition once it holds its fair
	// share of the remaining weight, or when exactly one row per
	// remaining partition is left (every partition stays non-empty, so
	// the ranges concatenate gaplessly over the scan order; the last
	// partition's share equals the whole remaining weight, so it always
	// drains the scan).
	parts = make([][2]int, 0, target)
	rem := rootTotal
	left := target
	seen := 0
	lo := -1
	var acc, share int64
	st.mat.ForEachRow(func(r int, row *bitvec.Row) bool {
		if lo < 0 {
			lo = r
			share = (rem + int64(left) - 1) / int64(left)
		}
		acc += int64(row.Count())
		seen++
		if n-seen <= left-1 || acc >= share {
			parts = append(parts, [2]int{lo, r + 1})
			rem -= acc
			acc, lo = 0, -1
			left--
		}
		return left > 0
	})
	if len(parts) < 2 {
		return -1, nil
	}
	return root, parts
}
