package engine

import (
	"sync"

	"repro/internal/sparql"
)

// memoEntries and memoBudget bound an engine's prepared-query memo: it
// holds at most memoEntries texts of at most memoBudget total weight, an
// entry weighing its text's length in bytes times its executed branches
// (a Prepared holds the parsed text and, per branch, a tree clone and a
// plan, so its size follows that product), and it admits no entry over
// memoMaxWeight. An executed entry of the benchmark's selective
// templates (at most 1.1 KB of text in one branch) holds 9.8 KB of live
// heap for LUBM Q4 and 12 KB for the DBpedia entity card, so 512 of them
// take about 6 MiB. The densest texts, chains of one-hop patterns, hold
// about 72 bytes per unit of weight once planned: a memo filled with
// 1 KiB chains (512 entries at the budget) holds 36 MiB, with 4 KiB
// chains (128 entries) 31 MiB. The entry bound holds twice the 256-text
// pool the benchmark's HTTP workloads draw from, and the budget holds
// that pool at up to 2 KiB a text.
const (
	memoEntries   = 512
	memoBudget    = memoEntries << 10
	memoMaxWeight = 4 << 10
)

// memo maps exact query texts to their Prepared over one engine's
// snapshot. Everything a Prepared holds derives from the text and the
// snapshot alone, and an engine serves exactly one snapshot, so an entry
// never goes stale: a write installs a fresh engine, and the memo retires
// with its snapshot. A full memo drops arbitrary entries to admit a new
// one, so a hit does no bookkeeping beyond the lookup.
type memo struct {
	mu sync.RWMutex
	m  map[string]*Prepared
	// weight is the total weight of m's entries (see memoWeight).
	weight int
}

// memoWeight is the weight of filing p under text src.
func memoWeight(src string, p *Prepared) int {
	return len(src) * max(1, len(p.execs))
}

// PrepareText returns the Prepared of query text src over the engine's
// snapshot. The first call for a text parses and prepares it and files
// it in the engine's memo, and later calls are served from there, which
// hit reports. A parse error is returned as err and never filed, nor is
// a text over memoMaxWeight; a preparation error stays in the Prepared
// and surfaces from its executions, as with Prepare. Concurrent first
// calls for one text may each prepare it; they get equivalent Prepareds,
// and the memo keeps one.
func (e *Engine) PrepareText(src string) (p *Prepared, hit bool, err error) {
	if p = e.Memoized(src); p != nil {
		return p, true, nil
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, false, err
	}
	return e.memo.add(src, e.Prepare(q)), false, nil
}

// Memoized returns the memo's Prepared of src, or nil when the memo does
// not hold the text. It never parses.
func (e *Engine) Memoized(src string) *Prepared {
	e.memo.mu.RLock()
	defer e.memo.mu.RUnlock()
	return e.memo.m[src]
}

// add files p under src unless another caller filed one first or p
// weighs over memoMaxWeight, and returns the entry the memo keeps.
func (m *memo) add(src string, p *Prepared) *Prepared {
	w := memoWeight(src, p)
	if w > memoMaxWeight {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.m[src]; ok {
		return old
	}
	if m.m == nil {
		m.m = make(map[string]*Prepared)
	}
	for k, old := range m.m { // map order: arbitrary entries
		if len(m.m) < memoEntries && m.weight+w <= memoBudget {
			break
		}
		delete(m.m, k)
		m.weight -= memoWeight(k, old)
	}
	m.m[src] = p
	m.weight += w
	return p
}

// MemoEntries reports the number of query texts in the engine's memo.
func (e *Engine) MemoEntries() int {
	e.memo.mu.RLock()
	defer e.memo.mu.RUnlock()
	return len(e.memo.m)
}
