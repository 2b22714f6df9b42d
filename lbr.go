// Package lbr is Left Bit Right: a SPARQL query processor for basic graph
// patterns with nested OPTIONAL patterns (left-outer joins), implementing
// the system of Atre, "Left Bit Right: For SPARQL Join Queries with
// OPTIONAL Patterns (Left-outer-joins)" (SIGMOD 2015, arXiv:1304.7799).
//
// The engine indexes an RDF graph as compressed BitMats (Section 4 of the
// paper), prunes the triples matching each triple pattern with semi-joins
// and clustered-semi-joins scheduled over the graph of join variables
// (Sections 3.2/3.3), and produces results with a multi-way pipelined join
// (Section 5.1), avoiding the nullification and best-match operators
// whenever the query's structure permits (Lemmas 3.3 and 3.4).
//
// Writes are first-class: ApplyUpdate executes SPARQL 1.1 Update
// requests against a delta overlay over the base index (no rebuild),
// MVCC snapshot generations keep in-flight queries on their view,
// Compact folds the delta in the background, and OpenWAL makes updates
// durable across a crash.
//
// Typical use:
//
//	store := lbr.NewStore()
//	store.Add(lbr.TripleIRI("s", "p", "o"))
//	if err := store.Build(); err != nil { ... }
//	res, err := store.Query(`SELECT * WHERE { ?s <p> ?o . }`)
package lbr

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitmat"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// Term is an RDF term (IRI, literal, or blank node). The zero Term is the
// NULL produced by OPTIONAL patterns.
type Term = rdf.Term

// Triple is one RDF statement.
type Triple = rdf.Triple

// Stats carries the per-query evaluation metrics of Section 6.1: init,
// prune and join times, triple counts before and after pruning, and
// whether best-match was needed.
type Stats = engine.Stats

// CacheStats carries the counters of the store's cross-query BitMat
// materialization cache (see Options.CacheBudget and Store.CacheStats).
type CacheStats = engine.CacheStats

// IRI builds an IRI term.
func IRI(iri string) Term { return rdf.NewIRI(iri) }

// Literal builds a plain literal term.
func Literal(v string) Term { return rdf.NewLiteral(v) }

// TripleIRI builds a triple of three IRIs.
func TripleIRI(s, p, o string) Triple { return rdf.T(s, p, o) }

// TripleLit builds a triple with a literal object.
func TripleLit(s, p, lit string) Triple { return rdf.TL(s, p, lit) }

// Options tune the store; the zero value is the paper's configuration.
// The engine's ablation switches (engine.Options) are not exposed here:
// the ablation benchmarks set them on the engine directly.
type Options struct {
	// Workers bounds the goroutines of the partitioned multi-way join of
	// each query branch, the engine's one parallel phase; init and
	// pruning run on the query's goroutine. A query's UNION branches run
	// one after another, each with the whole pool. 0 means GOMAXPROCS; 1
	// forces sequential execution; negative values are treated as 1.
	// Parallel execution returns rows identical to (and in the same order
	// as) sequential execution.
	Workers int
	// CacheBudget bounds, in bytes, the store's cross-query BitMat
	// materialization cache: a cost-weighted LRU of pristine (unmasked,
	// unpruned) per-pattern matrices shared by all queries running against
	// one index snapshot, built single-flight and retired wholesale
	// whenever a mutation rebuilds the index. Queries clone cached
	// matrices before pruning, so results are byte-identical with the
	// cache on, off, or at any budget. Every load admits its pattern on
	// first touch. The budget counts row payloads and directory slots
	// (16 B per live row: its id, row pointer and set-bit count) but not
	// the per-row bitvec.Row headers, so the heap a full cache holds is
	// several times the budget (see CacheStats.BytesUsed). 0 selects the
	// default (64 MiB); negative values disable the cache.
	CacheBudget int64
	// CompactThreshold, when positive, starts a background compaction as
	// soon as the store's delta overlay accumulates that many entries
	// (inserts plus deletes versus the base index). 0 disables automatic
	// compaction: deltas accumulate until Compact is called explicitly or
	// an operation that needs a compacted index (SaveIndex, IndexSizes,
	// Stats) forces one. Compaction never changes query results —
	// in-flight queries keep their snapshot, and the folded index answers
	// exactly like the overlay it replaces.
	CompactThreshold int
	// SlowQueryThreshold, when positive together with SlowQueryLog,
	// enables the slow-query log: Query, QueryContext, Ask, AskContext and
	// QueryStreamRowsObserved (given no span of the caller's) then run
	// every query with a tracer attached, and a query whose wall time
	// reaches the threshold appends one JSON line — timestamp, stable
	// query hash (trace.QueryHash), duration, row count, the (truncated)
	// query text, and the full span tree — to SlowQueryLog. Queries under
	// the threshold pay only the tracing cost (a few spans per stage);
	// results are byte-identical either way. 0 (or a nil SlowQueryLog)
	// disables slow-query logging entirely, and queries run with no tracer
	// attached — the instrumentation then reduces to nil checks.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSON lines. Writes are
	// serialized by the store (one line per slow query, never interleaved),
	// so any io.Writer works — a file, os.Stderr, a log pipe.
	SlowQueryLog io.Writer
}

// defaultCacheBudget is the materialization cache bound CacheBudget = 0
// selects.
const defaultCacheBudget = 64 << 20

// EffectiveCacheBudget reports the byte bound the options resolve to:
// CacheBudget when positive, 64 MiB when zero, and 0 (cache disabled) for
// negative values.
func (o Options) EffectiveCacheBudget() int64 {
	switch {
	case o.CacheBudget > 0:
		return o.CacheBudget
	case o.CacheBudget == 0:
		return defaultCacheBudget
	default:
		return 0
	}
}

// EffectiveWorkers reports the worker count the options resolve to:
// Workers when positive, GOMAXPROCS when zero, and 1 for negative values.
func (o Options) EffectiveWorkers() int { return o.engineOptions().EffectiveWorkers() }

// Store holds an RDF graph as a BitMat index (the last compacted base)
// plus the net delta of mutations since: the triples inserted and the base
// triples deleted. That is the only record of the data — no triple list
// is kept beside the index. The first LoadNTriples builds the base
// straight from the parse; triples added one by one before any build wait
// in the delta until the first Build or query indexes them.
//
// A Store is safe for concurrent use: any number of goroutines may call
// Query, QueryContext, Ask, Explain, and the other read methods while
// others call Add, Remove, ApplyUpdate, or Build. Queries never observe a
// half-applied mutation — they run against an immutable MVCC snapshot (a
// compacted index, or the base index plus a delta overlay), so a query
// racing a mutation sees either the pre- or post-mutation data, never a
// mixture, and a query started before an update finishes with its original
// view even while later generations are installed. Writers serialize on
// the store lock; reads load the published snapshot and do not wait for
// them.
type Store struct {
	// mu serializes writers and guards every field but snap and the
	// atomic counters. Reads take no lock: they load snap.
	mu sync.RWMutex
	// snap is the published query snapshot, replaced whole by every
	// install and nil while none is installed (never built, or a failed
	// overlay install); only then does a read take mu to install one.
	snap atomic.Pointer[querySnapshot]
	// base is the last compacted index. Immutable once installed.
	base *bitmat.Index
	opts Options
	// cache is the cross-query BitMat materialization cache (nil when
	// Options.CacheBudget is negative). gen counts source snapshots: every
	// install — rebuild, overlay, or compaction — bumps it and retires the
	// previous generation's cache entries, so a query can never read a
	// matrix from a snapshot other than the one it runs against. gen is
	// the writers' counter; reads take theirs from snap.
	cache *engine.MatCache
	gen   uint64

	// ins and del are the net delta versus base, keyed by the triple's
	// N-Triples rendering: ins holds triples present in the store but not
	// the base, del triples present in the base but removed since. An
	// insert of a deleted triple (or vice versa) cancels, so the two maps
	// are always disjoint and minimal, and the store holds exactly
	// base − del + ins. Before the first build (bulkLoadLocked or
	// buildLocked) the base is empty: del is empty and ins holds every
	// triple added, and a first-build load folds ins into the new base.
	ins map[string]Triple
	del map[string]Triple

	// lsn counts applied mutation batches; a compaction records the lsn of
	// its input snapshot and rebases instead of installing when mutations
	// landed while it built.
	lsn uint64
	wal *wal

	// compactDone is non-nil while a compaction is in flight and is closed
	// when it finishes.
	compactDone chan struct{}

	// walCheckpointLSN records the store LSN at the last WAL checkpoint
	// (a SaveIndex that proved every logged mutation folded into the
	// persisted base, letting the log truncate to zero).
	walCheckpointLSN uint64

	// slowMu serializes slow-query log lines so concurrent slow queries
	// never interleave bytes on the shared writer.
	slowMu sync.Mutex

	// Durability and compaction counters for the /metrics endpoint (see
	// WALStats). Atomics, not mu-guarded: the compaction timings are
	// recorded off-lock and metrics scrapes must not contend with writers.
	walAppends       atomic.Int64
	walReplayed      atomic.Int64
	walCheckpoints   atomic.Int64
	compactions      atomic.Int64
	compactionLastNS atomic.Int64
	loadLastNS       atomic.Int64
	overlayLastNS    atomic.Int64

	// Reads served from the snapshots' prepared-query memos and reads that
	// prepared their text (see MemoStats), counted across snapshots.
	memoHits   atomic.Int64
	memoMisses atomic.Int64
}

// querySnapshot is one immutable query view of the store, published whole
// through Store.snap: src is what queries run against (the base itself
// when the delta is empty, or an overlay merging the net delta over it),
// eng the engine bound to src and to generation gen's cache view, and
// delta the number of delta entries src merges over the base (so src is
// an overlay exactly when delta is positive).
type querySnapshot struct {
	gen   uint64
	src   bitmat.Source
	eng   *engine.Engine
	delta int
}

// NewStore returns an empty store.
func NewStore() *Store { return NewStoreWithOptions(Options{}) }

// NewStoreWithOptions returns an empty store with engine options.
func NewStoreWithOptions(opts Options) *Store {
	return &Store{
		opts:  opts,
		cache: engine.NewMatCache(opts.EffectiveCacheBudget()),
		ins:   map[string]Triple{},
		del:   map[string]Triple{},
	}
}

// Options returns the options the store was constructed with. They are
// immutable for the store's lifetime, so layers above (e.g. a server
// sizing its admission control from EffectiveWorkers) can read them
// without synchronization.
func (s *Store) Options() Options { return s.opts }

// Add inserts one triple. It reports whether the triple was new. On a
// built store the triple lands in the delta overlay and is visible to the
// next query immediately, without an index rebuild.
func (s *Store) Add(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n, err := s.mutateLocked(nil, []Triple{t}, true)
	return err == nil && n > 0
}

// AddAll inserts triples and returns how many were new.
func (s *Store) AddAll(ts []Triple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n, err := s.mutateLocked(nil, ts, true)
	if err != nil {
		return 0
	}
	return n
}

// Remove deletes one triple. It reports whether the triple was present.
// Like Add, the removal takes effect through the delta overlay on a built
// store — no rebuild.
func (s *Store) Remove(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _, err := s.mutateLocked([]Triple{t}, nil, true)
	return err == nil && n > 0
}

// RemoveAll deletes triples and returns how many were present.
func (s *Store) RemoveAll(ts []Triple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _, err := s.mutateLocked(ts, nil, true)
	if err != nil {
		return 0
	}
	return n
}

// LoadNTriples reads N-Triples into the store, returning the number of
// distinct statements added. The whole input is parsed, its terms
// interned into an index builder, before anything is added: a malformed
// line fails the load with an error naming its line number, and then
// nothing is added or logged. A failed WAL append is returned too, and
// then nothing is added either.
//
// On a store that was never built, the load is the first build: the
// triples already waiting in the delta join the parsed ones, and the index
// built from them becomes the base at once, with an empty delta. The
// query snapshot is installed by the next Build or query, as before. On a
// built store the parsed triples are an ordinary mutation batch through
// the delta overlay, which drops the duplicates.
func (s *Store) LoadNTriples(r io.Reader) (int, error) {
	t0 := time.Now()
	b := bitmat.NewBuilder()
	if err := rdf.ScanNTriples(r, b.Add); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	var err error
	if s.base == nil {
		n, err = s.bulkLoadLocked(b)
	} else {
		_, n, err = s.mutateLocked(nil, b.Triples(), true)
	}
	if err == nil {
		s.loadLastNS.Store(int64(time.Since(t0)))
	}
	return n, err
}

// bulkLoadLocked performs the first build from a load's builder: it adds
// the triples waiting in the delta, builds, logs the effective inserts
// (the index's triples that were not already waiting) when a WAL is open,
// and installs the index as the base with an empty delta and no snapshot.
// It returns the number of triples the load added. The caller holds mu
// and guarantees base is nil, so the delta holds inserts only.
func (s *Store) bulkLoadLocked(b *bitmat.Builder) (int, error) {
	for _, t := range s.ins {
		b.Add(t)
	}
	idx := b.Build()
	n := int(idx.NumTriples()) - len(s.ins)
	if n == 0 {
		return 0, nil
	}
	// WAL before state: if logging fails, nothing is applied.
	if s.wal != nil {
		effIns := make([]Triple, 0, n)
		err := idx.ForEachTriple(func(_ rdf.IDTriple, t Triple) bool {
			if _, ok := s.ins[t.String()]; !ok {
				effIns = append(effIns, t)
			}
			return true
		})
		if err != nil {
			return 0, err
		}
		if err := s.wal.append(nil, effIns); err != nil {
			return 0, fmt.Errorf("lbr: wal append: %w", err)
		}
		s.walAppends.Add(1)
	}
	s.lsn++
	s.base = idx
	s.ins = map[string]Triple{}
	return n, nil
}

// LoadGraph bulk-adds another graph's triples.
func (s *Store) LoadGraph(g *rdf.Graph) int { return s.AddAll(g.Triples()) }

// Len reports the number of distinct triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.ins) - len(s.del)
	if s.base != nil {
		n += int(s.base.NumTriples())
	}
	return n
}

// GraphStats summarizes the data the way Table 6.1 does.
type GraphStats = rdf.Stats

// Stats reports dataset characteristics, counted from the postings of a
// compacted index: like SaveIndex, it folds any outstanding delta first.
func (s *Store) Stats() (GraphStats, error) {
	idx, err := s.ensureIndex()
	if err != nil {
		return GraphStats{}, err
	}
	return idx.Stats(), nil
}

// Build indexes the triples added so far, or, on a built store, folds the
// delta of later mutations into a fresh index (see Compact), and installs
// the query snapshot. Queries do not need it: the first query builds
// lazily (single-flight), and later mutations reach queries through the
// delta overlay without a rebuild.
func (s *Store) Build() error {
	if err := s.Compact(); err != nil {
		return err
	}
	_, err := s.ensureSnapshot()
	return err
}

// engineOptions maps the public options onto the engine's. Both build
// paths (Build and OpenIndexWithOptions) go through this, so a new field
// cannot be threaded through one and forgotten in the other.
func (o Options) engineOptions() engine.Options {
	return engine.Options{Workers: o.Workers}
}

// buildLocked performs the first build when no LoadNTriples did: it
// indexes the triples waiting in the delta, installs the index as the
// base and installs the query snapshot over it. The caller holds mu and
// guarantees base is nil.
func (s *Store) buildLocked() error {
	idx, err := buildIndex(nil, s.ins, nil)
	if err != nil {
		return err
	}
	s.installIndexLocked(idx)
	return nil
}

// installIndexLocked adopts idx as the new compacted base covering the
// store's triples exactly: the delta empties and queries run straight
// against the index. The caller holds mu.
func (s *Store) installIndexLocked(idx *bitmat.Index) {
	s.base = idx
	s.ins = map[string]Triple{}
	s.del = map[string]Triple{}
	s.installSourceLocked(idx)
}

// installSourceLocked adopts src as the new immutable query snapshot: it
// starts the next snapshot generation, retires the previous generation's
// cached materializations atomically, binds a fresh engine to the new
// generation's cache view, and publishes the snapshot. The caller holds
// mu.
func (s *Store) installSourceLocked(src bitmat.Source) {
	s.gen++
	s.snap.Store(&querySnapshot{
		gen:   s.gen,
		src:   src,
		eng:   engine.NewWithCache(src, s.opts.engineOptions(), s.cache.Advance(s.gen)),
		delta: len(s.ins) + len(s.del),
	})
}

// installOverlayLocked rebuilds the delta overlay over the current base
// from the net ins/del sets and installs it as the query snapshot (or the
// bare base when the delta is empty). The overlay's dictionary extends
// the base's: a delta term new to the base is appended to its space, and
// a base term the delta gives its second role keeps its one S/O ID. Delta
// triples are fed to the overlay in key order, so reconstructing the same
// logical state — on WAL replay, say — assigns identical IDs. Its wall
// time is WALStats.OverlayInstallLastMS.
// The caller holds mu and guarantees base is non-nil.
func (s *Store) installOverlayLocked() error {
	t0 := time.Now()
	defer func() { s.overlayLastNS.Store(int64(time.Since(t0))) }()
	if len(s.ins) == 0 && len(s.del) == 0 {
		s.installSourceLocked(s.base)
		return nil
	}
	ov, err := bitmat.NewOverlay(s.base, sortedTriples(s.ins), sortedTriples(s.del))
	if err != nil {
		return err
	}
	s.installSourceLocked(ov)
	return nil
}

// sortedTriples returns the map's triples sorted by their N-Triples key.
func sortedTriples(m map[string]Triple) []Triple {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Triple, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// CacheStats reports the counters of the cross-query materialization
// cache: hits, misses, evictions, generation invalidations, and current
// residency. All zeroes when the cache is disabled (negative
// Options.CacheBudget). Safe to call concurrently with queries and
// mutation.
func (s *Store) CacheStats() engine.CacheStats { return s.cache.Stats() }

// RegexCacheSize reports the number of compiled FILTER regex(…) patterns
// the engine currently caches. The cache is process-wide (patterns come
// from query text and are shared across stores) and
// size-bounded; the server surfaces this on /metrics.
func RegexCacheSize() int { return engine.RegexCacheSize() }

// SnapshotGeneration reports the generation number of the current index
// snapshot, building it first if the store was mutated or never built.
// Generations increase by one per (re)build, so two equal generations
// bracket an unchanged index — the key layers above use to cache derived
// artifacts (the HTTP server's result cache keys on it). Under concurrent
// mutation the value is a snapshot in time, exactly like the data a
// concurrent query sees; it is at least the generation a completed
// ApplyUpdate reported.
func (s *Store) SnapshotGeneration() (uint64, error) {
	snap, err := s.ensureSnapshot()
	if err != nil {
		return 0, err
	}
	return snap.gen, nil
}

// Built reports whether a query snapshot covering every mutation so far
// exists. Under concurrent mutation the answer is advisory: it is accurate
// at the instant of the call but another goroutine's Add may invalidate it
// before the caller acts on it. Queries do not need Built — they build on
// demand.
func (s *Store) Built() bool { return s.snap.Load() != nil }

// Generation reports the current snapshot generation without building
// anything: 0 until the first snapshot exists. Metrics endpoints use this
// in preference to SnapshotGeneration, which would force a build.
func (s *Store) Generation() uint64 {
	if snap := s.snap.Load(); snap != nil {
		return snap.gen
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// ensureSnapshot returns the published query snapshot, installing it
// (single-flight, under mu) when none is: the store was never built, or
// a mutation's overlay install failed. The snapshot is immutable: using
// it is safe while other goroutines mutate the store, and the fast path
// takes no lock a writer holds.
func (s *Store) ensureSnapshot() (*querySnapshot, error) {
	if snap := s.snap.Load(); snap != nil {
		return snap, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureSnapshotLocked()
}

// ensureSnapshotLocked is ensureSnapshot for callers already holding mu.
func (s *Store) ensureSnapshotLocked() (*querySnapshot, error) {
	if snap := s.snap.Load(); snap != nil {
		return snap, nil
	}
	if s.base != nil {
		if err := s.installOverlayLocked(); err != nil {
			return nil, err
		}
	} else if err := s.buildLocked(); err != nil {
		return nil, err
	}
	return s.snap.Load(), nil
}

// ensureIndex returns a compacted index covering every mutation so far,
// folding any outstanding delta first. SaveIndex, IndexSizes, and Stats
// route through it: extended overlay dictionaries are never persisted or
// counted.
func (s *Store) ensureIndex() (*bitmat.Index, error) {
	if err := s.Compact(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base, nil
}

// Result is a materialized query result. Columns align with Vars; a zero
// Term is a NULL. The engine's rows stay dictionary cells until a row is
// first read: the first call to Row, Rows, Iterate or String resolves
// every row to terms, once, and Len and Stats never do. A Result is safe
// for concurrent use, and it resolves to the same terms after later
// updates and compactions of its store.
type Result struct {
	Vars  []string
	Stats Stats
	cells *engine.Result // nil when rows was filled directly
	once  sync.Once
	rows  [][]Term
}

// Len reports the number of result rows.
func (r *Result) Len() int {
	if r.cells != nil {
		return len(r.cells.Rows)
	}
	return len(r.rows)
}

// terms returns the resolved rows, resolving them on the first call.
func (r *Result) terms() [][]Term {
	r.once.Do(func() {
		if r.cells != nil {
			r.rows = r.cells.Terms()
		}
	})
	return r.rows
}

// Row returns row i. The row is aligned with Vars: unbound variables
// (from OPTIONAL patterns) appear as zero Terms, never as a shorter row.
// The row is shared with the result and must not be mutated.
func (r *Result) Row(i int) []Term { return r.terms()[i] }

// Rows returns all rows, each aligned with Vars (a zero Term is an
// unbound OPTIONAL variable). It is the loop-friendly companion to
// Row(i): callers range over it instead of indexing Len() times. The
// rows are copies that share no backing array with the result, so the
// caller may modify them.
func (r *Result) Rows() [][]Term {
	rows := r.terms()
	out := make([][]Term, len(rows))
	for i, row := range rows {
		out[i] = slices.Clone(row)
	}
	return out
}

// Iterate calls fn for each row as a variable-to-term map. NULL columns
// are omitted from the map — the SPARQL view, where an OPTIONAL variable
// is simply unbound — so a row's map may have fewer entries than Vars.
// This is deliberately asymmetric with String, Rows, and the
// internal/results serializers, which preserve column order and represent
// unbound variables explicitly (String prints NULL; the serializers emit
// the format's empty/absent-binding form). Iteration stops early if fn
// returns false.
func (r *Result) Iterate(fn func(map[string]Term) bool) {
	for _, row := range r.terms() {
		m := make(map[string]Term, len(r.Vars))
		for i, v := range r.Vars {
			if !row[i].IsZero() {
				m[v] = row[i]
			}
		}
		if !fn(m) {
			return
		}
	}
}

// String renders the result as a readable table: one tab-separated line
// per row in Vars order, with unbound OPTIONAL variables printed as NULL
// (unlike Iterate, which omits them from its maps).
func (r *Result) String() string {
	var sb strings.Builder
	for i, v := range r.Vars {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString("?" + v)
	}
	sb.WriteByte('\n')
	for _, row := range r.terms() {
		for i, t := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			if t.IsZero() {
				sb.WriteString("NULL")
			} else {
				sb.WriteString(t.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Query parses and executes a SPARQL query.
func (s *Store) Query(src string) (*Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query with cancellation: a done context aborts the
// query in any phase and returns ctx.Err(). A query concurrent with
// mutation runs on the most recently published snapshot. It takes the
// engine's collect route (engine.Engine.Execute): the partitioned join,
// the branch merge and the solution modifiers, materialized. When the
// slow-query log is enabled (Options.SlowQueryThreshold and
// SlowQueryLog), the query runs traced and a slow one is logged; results
// are identical either way.
func (s *Store) QueryContext(ctx context.Context, src string) (*Result, error) {
	return s.collect(ctx, src, nil)
}

// collect is the collect route under QueryContext and QueryTrace.
func (s *Store) collect(ctx context.Context, src string, sp *trace.Span) (res *Result, err error) {
	err = s.read(src, sp, func(eng *engine.Engine, p *engine.Prepared, sp *trace.Span) (int, error) {
		r, err := eng.Execute(ctx, p, sp)
		if err != nil {
			return -1, err
		}
		res = &Result{Vars: varNames(r.Vars), cells: r, Stats: r.Stats}
		return res.Len(), nil
	})
	return res, err
}

// QueryStreamRowsObserved executes a query and streams positional rows to
// fn: each row is aligned with vars, and an unbound OPTIONAL variable is a
// zero Term cell. (Result.Iterate is the map view, where an unbound
// variable is a missing key.) A row is valid only during the call to fn:
// every row is resolved into one reused buffer, so a caller that keeps a
// row copies it. It takes the engine's stream route
// (engine.Engine.ExecuteStream), whose rule says which queries stream
// from the multi-way join with constant memory and which are collected
// and replayed.
//
// fn is called once with a nil row before any result rows, carrying the
// variable header, so a consumer can emit its header (or its complete
// zero-row document) even when the query has no solutions. Returning
// false — from the header call or any row call — stops the enumeration
// early without error. A done ctx aborts the query in any phase and
// returns ctx.Err().
//
// st, when non-nil, receives the query's Stats: Results counts the rows
// delivered to fn, for a streamed execution the Join stage includes fn
// (serialization interleaves with row enumeration), and Total is the
// engine's time, as on every route. sp, when non-nil,
// receives the execution's span tree under it. Either may be nil
// independently; the server's /metrics stage histograms and ?explain=1
// both sit on this. When sp is nil and the slow-query log is enabled, the
// query runs traced and a slow one is logged, exactly like QueryContext.
func (s *Store) QueryStreamRowsObserved(ctx context.Context, src string, st *Stats, sp *trace.Span, fn func(vars []string, row []Term) bool) error {
	if st == nil {
		st = new(Stats)
	}
	return s.read(src, sp, func(eng *engine.Engine, p *engine.Prepared, sp *trace.Span) (int, error) {
		var vars []string
		var cells *engine.Cells
		var buf []Term
		header := func(vs []sparql.Var, c *engine.Cells) bool {
			vars, cells, buf = varNames(vs), c, make([]Term, len(vs))
			return fn(vars, nil)
		}
		// The header and every row come from one normalization pass, so a
		// row is already in the header's column order.
		emit := func(_ []sparql.Var, row engine.Row) bool { return fn(vars, cells.Resolve(row, buf)) }
		err := eng.ExecuteStream(ctx, p, header, emit, st, sp)
		return st.Results, err
	})
}

// Ask evaluates an ASK query (or the WHERE pattern of any query) as an
// existence check, stopping at the first solution.
func (s *Store) Ask(src string) (bool, error) {
	return s.AskContext(context.Background(), src, nil)
}

// AskContext is Ask with cancellation: a done context aborts the
// existence check in any phase and returns ctx.Err(). It streams like
// QueryStreamRowsObserved and is slow-query logged like it. sp, when
// non-nil, receives the probe's span tree (the probe stops at its first
// row) and the query hash, like QueryStreamRowsObserved's.
func (s *Store) AskContext(ctx context.Context, src string, sp *trace.Span) (found bool, err error) {
	err = s.read(src, sp, func(eng *engine.Engine, p *engine.Prepared, sp *trace.Span) (int, error) {
		var err error
		found, err = eng.AskContext(ctx, p, sp)
		if found {
			return 1, err
		}
		return 0, err
	})
	return found, err
}

// read is the one prologue under every query entry point: stamp the query
// hash on sp, bind the published snapshot (under a "snapshot" span when
// traced), take the text's Prepared from the snapshot's memo, and hand the
// engine and the Prepared to route, which returns the row count it
// delivered. When sp is nil and the slow-query log is enabled, the read
// runs under its own tracer and a slow one is logged.
func (s *Store) read(src string, sp *trace.Span, route func(*engine.Engine, *engine.Prepared, *trace.Span) (int, error)) error {
	if sp != nil || !s.slowLogging() {
		_, err := s.readOn(src, sp, route)
		return err
	}
	t := trace.New("query")
	start := time.Now()
	rows, err := s.readOn(src, t.Root(), route)
	t.Finish()
	s.logSlowQuery(src, time.Since(start), rows, t.Root(), err)
	return err
}

// readOn is read on a given span: it returns the route's row count, or
// -1 when the read failed before the route ran.
func (s *Store) readOn(src string, sp *trace.Span, route func(*engine.Engine, *engine.Prepared, *trace.Span) (int, error)) (int, error) {
	if sp != nil {
		sp.Set("query_hash", trace.QueryHash(src))
	}
	snap, err := s.snapshotTraced(sp)
	if err != nil {
		return -1, err
	}
	p, hit, err := snap.eng.PrepareText(src)
	if hit {
		s.memoHits.Add(1)
	} else {
		s.memoMisses.Add(1)
	}
	if err != nil {
		return -1, err
	}
	return route(snap.eng, p, sp)
}

// CheckQuery parses src as a query and reports whether it is an ASK. A
// text the current snapshot's memo holds is answered from there without
// a parse. Any other text is only parsed, and nothing is filed: its
// preparation is left to the read that runs it, so that work happens
// inside the caller's admission and timeout. A check never builds the
// index and is not counted in MemoStats.
func (s *Store) CheckQuery(src string) (ask bool, err error) {
	if snap := s.snap.Load(); snap != nil {
		if p := snap.eng.Memoized(src); p != nil {
			return p.IsAsk(), nil
		}
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return false, err
	}
	return q.Ask, nil
}

// varNames renders engine variables as the public column names.
func varNames(vs []sparql.Var) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = string(v)
	}
	return names
}

// Explain returns a plan summary: the serialized tree, the GoSN edges, and
// the classification flags of each union-free branch. It reads the plans
// from the snapshot's memo, so it prints the plans the text's queries run
// with on this snapshot.
func (s *Store) Explain(src string) (string, error) {
	snap, err := s.ensureSnapshot()
	if err != nil {
		return "", err
	}
	p, _, err := snap.eng.PrepareText(src)
	if err != nil {
		return "", err
	}
	return snap.eng.Describe(p)
}

// BaselinePolicy selects a comparator engine for QueryBaseline.
type BaselinePolicy int

const (
	// MonetDBLike evaluates the query tree as written (bulk column-store
	// style).
	MonetDBLike BaselinePolicy = iota
	// VirtuosoLike reorders patterns by selectivity and pushes selective
	// bindings sideways.
	VirtuosoLike
)

// QueryBaseline executes the query on the relational comparator engine,
// for benchmarking against LBR. The baseline scans the current snapshot
// directly — base plus delta overlay — so comparing against a store with
// uncompacted updates no longer forces a full compaction first.
func (s *Store) QueryBaseline(src string, policy BaselinePolicy) (*Result, error) {
	snap, err := s.ensureSnapshot()
	if err != nil {
		return nil, err
	}
	pol := baseline.OriginalOrder
	if policy == VirtuosoLike {
		pol = baseline.SelectiveMaster
	}
	res, err := baseline.New(snap.src, pol).ExecuteString(src)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: varNames(res.Vars), rows: res.Rows}, nil
}

// IndexSizes reports the on-disk footprint of the full BitMat family under
// the hybrid codec and under pure RLE (the Section 4 comparison).
func (s *Store) IndexSizes() (bitmat.SizeReport, error) {
	idx, err := s.ensureIndex()
	if err != nil {
		return bitmat.SizeReport{}, err
	}
	return idx.Sizes(), nil
}

// WriteNTriples serializes the store's triples, one statement per line:
// the base index's triples in index order (by predicate, then subject and
// object ID), skipping deleted ones, then the inserted triples in N-Triples
// order. It copies the delta under the read lock and writes without
// holding it, so neither mutation nor queries wait for the writer.
func (s *Store) WriteNTriples(w io.Writer) error {
	s.mu.RLock()
	base, del, ins := s.base, maps.Clone(s.del), sortedTriples(s.ins)
	s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	// A bufio.Writer's first error sticks: later writes fail fast and
	// Flush reports it.
	write := func(t Triple) bool {
		bw.WriteString(t.String())
		_, err := bw.WriteString(" .\n")
		return err == nil
	}
	if err := forEachBaseTriple(base, del, write); err != nil {
		return err
	}
	for _, t := range ins {
		write(t)
	}
	return bw.Flush()
}

// Version identifies the library release.
const Version = "1.0.0"
