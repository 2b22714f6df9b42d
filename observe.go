package lbr

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/trace"
)

// Observability surface of the store: the EXPLAIN-style traced execution
// (QueryTrace), the slow-query log every query entry point feeds when
// Options enable it, and the durability counters /metrics exposes
// (WALStats).

// QueryTrace executes a query like QueryContext and additionally returns
// the execution's span tree: the root "query" span (attr "query_hash")
// with children for the snapshot acquisition, each UNF branch (planner
// decisions, per-pattern load/cache outcomes, per-jvar prune levels, the
// partitioned join), and the final merge. The span tree is returned even
// when the query errors (it then covers the work done up to the error);
// its Snapshot or JSON rendering is what the server's ?explain=1 responds
// with.
//
// Tracing never changes results: a traced run returns rows byte-identical
// to (and in the same order as) QueryContext's.
func (s *Store) QueryTrace(ctx context.Context, src string) (*Result, *trace.Span, error) {
	t := trace.New("query")
	res, err := s.collect(ctx, src, t.Root())
	t.Finish()
	return res, t.Root(), err
}

// slowLogging reports whether the store's options enable the slow-query
// log. opts is immutable after construction, so no lock is needed.
func (s *Store) slowLogging() bool {
	return s.opts.SlowQueryThreshold > 0 && s.opts.SlowQueryLog != nil
}

// slowQueryMaxSrc bounds the query text a slow-log line embeds; the
// stable query_hash identifies the full text across lines.
const slowQueryMaxSrc = 2048

// slowQueryRecord is one slow-query log line.
type slowQueryRecord struct {
	Time       string          `json:"time"`
	QueryHash  string          `json:"query_hash"`
	DurationMS float64         `json:"duration_ms"`
	Rows       int             `json:"rows"` // -1 when the query errored before counting
	Error      string          `json:"error,omitempty"`
	Query      string          `json:"query"`
	Trace      *trace.SpanJSON `json:"trace,omitempty"`
}

// logSlowQuery appends one JSON line to the slow-query log when the
// query's wall time reached the threshold. Lines are serialized under
// slowMu so concurrent slow queries never interleave; a marshal or write
// failure is dropped (the log is diagnostics, never on the query's
// correctness path).
func (s *Store) logSlowQuery(src string, d time.Duration, rows int, root *trace.Span, qerr error) {
	if d < s.opts.SlowQueryThreshold {
		return
	}
	q := src
	if len(q) > slowQueryMaxSrc {
		q = q[:slowQueryMaxSrc]
	}
	rec := slowQueryRecord{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		QueryHash:  trace.QueryHash(src),
		DurationMS: float64(d.Microseconds()) / 1000.0,
		Rows:       rows,
		Query:      q,
		Trace:      root.Snapshot(),
	}
	if qerr != nil {
		rec.Error = qerr.Error()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	s.opts.SlowQueryLog.Write(b)
}

// snapshotTraced is ensureSnapshot with an optional "snapshot" span
// recording which snapshot the query bound to: the generation, the delta
// size, and whether the snapshot is an overlay (base plus uncompacted
// delta) rather than a compacted index. The attributes come from the
// published snapshot itself, so they describe exactly the view the query
// runs on. The span's duration is the snapshot acquisition cost — near
// zero on the fast path, a full build when the store was never built or
// a mutation dropped the snapshot.
func (s *Store) snapshotTraced(sp *trace.Span) (*querySnapshot, error) {
	if sp == nil {
		return s.ensureSnapshot()
	}
	ssp := sp.Child("snapshot")
	defer ssp.End()
	snap, err := s.ensureSnapshot()
	if err != nil {
		return nil, err
	}
	ssp.Set("generation", snap.gen)
	ssp.Set("delta", snap.delta)
	ssp.Set("overlay", snap.delta > 0)
	return snap, nil
}

// WALStats is a point-in-time snapshot of the store's durability and
// compaction counters, exposed through the server's /metrics.
type WALStats struct {
	// Appends counts mutation batches fsynced to the attached WAL (0
	// when no WAL is attached).
	Appends int64 `json:"wal_appends"`
	// Replayed counts the WAL entries OpenWAL applied on crash recovery
	// (entries whose effect was already in the store don't count).
	Replayed int64 `json:"wal_replayed"`
	// Checkpoints counts WAL truncations: SaveIndex calls that proved
	// every logged mutation folded into the persisted snapshot.
	Checkpoints int64 `json:"wal_checkpoints"`
	// Compactions counts completed delta-folding rebuilds (explicit
	// Compact calls and background CompactThreshold compactions alike).
	Compactions int64 `json:"compactions"`
	// CompactionLastMS is the build time of the most recent successful
	// compaction, in milliseconds; 0 before the first one.
	CompactionLastMS float64 `json:"compaction_last_duration_ms"`
	// LoadLastMS is the wall time of the most recent successful
	// LoadNTriples, from the start of the parse to the index install (or
	// the delta apply on a built store), in milliseconds; 0 before the
	// first one.
	LoadLastMS float64 `json:"load_last_duration_ms"`
	// OverlayInstallLastMS is the wall time of the most recent delta
	// overlay install after a write: extending the dictionary, building
	// the overlay and publishing the snapshot, in milliseconds; 0 before
	// the first one.
	OverlayInstallLastMS float64 `json:"overlay_install_last_duration_ms"`
}

// WALStats snapshots the durability counters. Safe to call concurrently
// with queries and mutation; the values are monotone except
// CompactionLastMS, LoadLastMS and OverlayInstallLastMS, which track the
// latest compaction, load and overlay install.
func (s *Store) WALStats() WALStats {
	return WALStats{
		Appends:              s.walAppends.Load(),
		Replayed:             s.walReplayed.Load(),
		Checkpoints:          s.walCheckpoints.Load(),
		Compactions:          s.compactions.Load(),
		CompactionLastMS:     float64(s.compactionLastNS.Load()) / 1e6,
		LoadLastMS:           float64(s.loadLastNS.Load()) / 1e6,
		OverlayInstallLastMS: float64(s.overlayLastNS.Load()) / 1e6,
	}
}

// MemoStats is a point-in-time snapshot of the prepared-query memo (see
// the README's "Caching"), exposed through the server's /metrics.
type MemoStats struct {
	// Hits counts reads the snapshot's memo served: the read skipped
	// parse, UNF rewrite and (once made) planning.
	Hits int64 `json:"hits"`
	// Misses counts reads that parsed and prepared their text: a text's
	// first read on each snapshot, each of several concurrent first reads,
	// and every read of a text the memo does not admit or cannot parse.
	// Syntax checks (CheckQuery) and Explain are counted in neither.
	Misses int64 `json:"misses"`
	// Entries is the number of texts the current snapshot's memo holds; 0
	// before the first build.
	Entries int64 `json:"entries"`
}

// MemoStats snapshots the memo counters without building anything. Safe
// to call concurrently with queries and mutation; Hits and Misses are
// monotone, and Entries restarts from 0 with every snapshot.
func (s *Store) MemoStats() MemoStats {
	st := MemoStats{Hits: s.memoHits.Load(), Misses: s.memoMisses.Load()}
	if snap := s.snap.Load(); snap != nil {
		st.Entries = int64(snap.eng.MemoEntries())
	}
	return st
}
