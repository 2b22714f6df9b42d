package server

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	lbr "repro"
)

// latencyBoundsMS are the upper bounds (milliseconds) of the query latency
// histogram; the implicit final bucket is +Inf.
var latencyBoundsMS = [...]float64{1, 5, 25, 100, 500, 2500}

// stageBoundsMS are the upper bounds (milliseconds) of the per-stage
// timing histograms. Stages are much shorter than whole queries, so the
// buckets start finer than the query histogram's.
var stageBoundsMS = [...]float64{0.2, 1, 5, 25, 100, 500}

// stageNames are the per-query execution stages /metrics breaks latency
// into: the engine's init (BitMat loading), prune (semi-join passes), and
// join (multi-way join) stages, the merge stage (branch merge plus
// solution modifiers), and serialize — the residual of the query's wall
// time not attributed to an engine stage, which on the streaming path is
// dominated by result serialization and socket writes.
var stageNames = [...]string{"init", "prune", "join", "merge", "serialize"}

// stageHist is one stage's latency histogram: per-bucket counts plus the
// running sum (microseconds) and observation count Prometheus clients
// need for rate/mean queries.
type stageHist struct {
	buckets [len(stageBoundsMS) + 1]atomic.Int64
	sumUS   atomic.Int64
	count   atomic.Int64
}

func (h *stageHist) observe(d time.Duration) {
	h.sumUS.Add(d.Microseconds())
	h.count.Add(1)
	ms := float64(d) / float64(time.Millisecond)
	for i, bound := range stageBoundsMS {
		if ms <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(stageBoundsMS)].Add(1)
}

// Metrics is the server's expvar-style instrumentation: monotonically
// increasing counters plus an in-flight gauge, all updated with atomics so
// the hot path never takes a lock, and served as JSON from /metrics.
type Metrics struct {
	queries         atomic.Int64 // queries answered successfully
	errors          atomic.Int64 // queries that failed (parse, execution, I/O)
	rejected        atomic.Int64 // requests turned away by admission control
	timeouts        atomic.Int64 // queries cancelled by the per-request timeout
	inFlight        atomic.Int64 // requests currently executing
	rowsStreamed    atomic.Int64 // result rows serialized across all queries
	notModified     atomic.Int64 // conditional requests answered with 304
	updates         atomic.Int64 // update requests applied successfully
	updateErrors    atomic.Int64 // update requests that failed during execution
	updateRejected  atomic.Int64 // updates turned away by the write admission bound
	triplesInserted atomic.Int64 // effective triple inserts across all updates
	triplesDeleted  atomic.Int64 // effective triple deletes across all updates
	buckets         [len(latencyBoundsMS) + 1]atomic.Int64
	latencySumUS    atomic.Int64 // sum over all latency observations
	stages          [len(stageNames)]stageHist
}

// observeLatency records one completed query's wall time in the histogram.
func (m *Metrics) observeLatency(d time.Duration) {
	m.latencySumUS.Add(d.Microseconds())
	ms := float64(d) / float64(time.Millisecond)
	for i, bound := range latencyBoundsMS {
		if ms <= bound {
			m.buckets[i].Add(1)
			return
		}
	}
	m.buckets[len(latencyBoundsMS)].Add(1)
}

// observeStages attributes one executed query's wall time to the stage
// histograms: the engine's own Init/Prune/Join/Merge accounting, plus the
// residual (wall minus the engine stages, clamped at zero — concurrent
// branches can make the stage sum exceed the wall clock) as serialize.
// Cached replays and 304s skip this: no engine stage ran.
func (m *Metrics) observeStages(st *lbr.Stats, wall time.Duration) {
	serialize := wall - st.Init - st.Prune - st.Join - st.Merge
	if serialize < 0 {
		serialize = 0
	}
	for i, d := range [...]time.Duration{st.Init, st.Prune, st.Join, st.Merge, serialize} {
		m.stages[i].observe(d)
	}
}

// LatencyBucket is one histogram bucket of a metrics snapshot. LE is the
// inclusive upper bound in milliseconds ("+Inf" for the last bucket); the
// counts are per-bucket, not cumulative. (The Prometheus text view of the
// same histogram exposes cumulative counts, as that format requires.)
type LatencyBucket struct {
	LE    string `json:"le_ms"`
	Count int64  `json:"count"`
}

// StageLatency is one execution stage's histogram in a metrics snapshot.
type StageLatency struct {
	Stage   string          `json:"stage"`
	Buckets []LatencyBucket `json:"buckets"`
	SumMS   float64         `json:"sum_ms"`
	Count   int64           `json:"count"`
}

// ResultCacheSnapshot is the /metrics view of the server's result cache:
// serialized documents replayed for repeat queries of one index snapshot.
// Evictions count documents dropped under budget pressure; Invalidations
// count those dropped because a newer snapshot generation retired them.
type ResultCacheSnapshot struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int64 `json:"entries"`
	BytesUsed     int64 `json:"bytes_used"`
	Budget        int64 `json:"budget"`
}

// Snapshot is a point-in-time copy of the metrics, shaped for JSON. The
// two cache sections are filled by the /metrics handler (they live on the
// server and the store, not on the counter block) and stay nil when the
// snapshot comes straight from Metrics.Snapshot.
type Snapshot struct {
	QueriesServed  int64           `json:"queries_served"`
	QueryErrors    int64           `json:"query_errors"`
	Rejected       int64           `json:"rejected"`
	Timeouts       int64           `json:"timeouts"`
	InFlight       int64           `json:"in_flight"`
	RowsStreamed   int64           `json:"rows_streamed"`
	NotModified    int64           `json:"not_modified"`
	UpdatesServed  int64           `json:"updates_served"`
	UpdateErrors   int64           `json:"update_errors"`
	UpdateRejected int64           `json:"update_rejected"`
	TriplesIns     int64           `json:"triples_inserted"`
	TriplesDel     int64           `json:"triples_deleted"`
	LatencyBuckets []LatencyBucket `json:"latency_buckets"`
	// LatencySumMS is the sum over every latency observation, in
	// milliseconds — with the bucket counts this gives Prometheus its
	// histogram _sum/_count pair.
	LatencySumMS float64 `json:"latency_sum_ms"`
	// StageLatency breaks successful SELECT executions into per-stage
	// histograms: init, prune, join, merge, serialize.
	StageLatency []StageLatency `json:"stage_latency"`
	// SnapshotGeneration is the store's current MVCC snapshot generation
	// (0 until the first build). Filled by the /metrics handler without
	// forcing a build.
	SnapshotGeneration uint64               `json:"snapshot_generation"`
	ResultCache        *ResultCacheSnapshot `json:"result_cache,omitempty"`
	BitMatCache        *lbr.CacheStats      `json:"bitmat_cache,omitempty"`
	// QueryMemo carries the store's prepared-query memo counters (see
	// lbr.MemoStats). Filled by the /metrics handler.
	QueryMemo *lbr.MemoStats `json:"query_memo,omitempty"`
	// WAL carries the store's durability and compaction counters. Filled
	// by the /metrics handler.
	WAL *lbr.WALStats `json:"wal,omitempty"`
	// RegexCacheEntries is the current size of the engine's process-wide
	// compiled-regex cache (size-bounded; see engine.RegexCacheSize).
	// Filled by the /metrics handler.
	RegexCacheEntries int64 `json:"regex_cache_entries"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		QueriesServed:  m.queries.Load(),
		QueryErrors:    m.errors.Load(),
		Rejected:       m.rejected.Load(),
		Timeouts:       m.timeouts.Load(),
		InFlight:       m.inFlight.Load(),
		RowsStreamed:   m.rowsStreamed.Load(),
		NotModified:    m.notModified.Load(),
		UpdatesServed:  m.updates.Load(),
		UpdateErrors:   m.updateErrors.Load(),
		UpdateRejected: m.updateRejected.Load(),
		TriplesIns:     m.triplesInserted.Load(),
		TriplesDel:     m.triplesDeleted.Load(),
		LatencySumMS:   float64(m.latencySumUS.Load()) / 1000.0,
	}
	for i := range m.buckets {
		le := "+Inf"
		if i < len(latencyBoundsMS) {
			le = formatBound(latencyBoundsMS[i])
		}
		s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: le, Count: m.buckets[i].Load()})
	}
	for si := range m.stages {
		h := &m.stages[si]
		sl := StageLatency{
			Stage: stageNames[si],
			SumMS: float64(h.sumUS.Load()) / 1000.0,
			Count: h.count.Load(),
		}
		for i := range h.buckets {
			le := "+Inf"
			if i < len(stageBoundsMS) {
				le = formatBound(stageBoundsMS[i])
			}
			sl.Buckets = append(sl.Buckets, LatencyBucket{LE: le, Count: h.buckets[i].Load()})
		}
		s.StageLatency = append(s.StageLatency, sl)
	}
	return s
}

func formatBound(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// writeMetricsJSON is the one metrics serialization: both the bare
// Metrics handler and the server's /metrics (which adds the cache
// sections first) write through it, so the format cannot diverge.
func writeMetricsJSON(w http.ResponseWriter, snap Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// ServeHTTP writes the snapshot as an indented JSON document. The
// server's own /metrics route goes through handleMetrics instead, which
// extends the snapshot with the cache tiers; this handler remains for
// embedders that mount a bare Metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	writeMetricsJSON(w, m.Snapshot())
}
