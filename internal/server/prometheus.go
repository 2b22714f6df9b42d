package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the /metrics
// snapshot. The JSON view keeps its per-bucket histogram counts for
// backward compatibility; this view follows the Prometheus rules instead:
// bucket counts are cumulative, bounds are in seconds, and every
// histogram carries its _sum and _count series.

// promContentType is the content type Prometheus scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus reports whether the /metrics request asked for the text
// exposition: an explicit ?format=prometheus, or an Accept header naming
// text/plain (what a Prometheus scraper sends) without asking for JSON
// first.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain")
}

// promBound renders a millisecond histogram bound as a Prometheus
// seconds-unit le label value.
func promBound(ms float64) string {
	return strconv.FormatFloat(ms/1000.0, 'g', -1, 64)
}

// promHistogram writes one histogram: cumulative buckets (converted from
// the snapshot's per-bucket counts), then _sum and _count. labels is the
// shared label set without braces (e.g. `stage="init"`), empty for none.
func promHistogram(w io.Writer, name, labels string, boundsMS []float64, buckets []LatencyBucket, sumMS float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range buckets {
		cum += b.Count
		le := "+Inf"
		if i < len(boundsMS) {
			le = promBound(boundsMS[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	var braced string
	if labels != "" {
		braced = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, strconv.FormatFloat(sumMS/1000.0, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, cum)
}

// promSimple writes one unlabelled counter or gauge with its HELP/TYPE
// header.
func promSimple(w io.Writer, name, typ, help string, value any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	switch v := value.(type) {
	case float64:
		fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
	default:
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
}

// writeMetricsProm renders the full snapshot in the Prometheus text
// format. The sample set mirrors the JSON view: request counters, the
// query and per-stage latency histograms, the snapshot generation, the
// durability counters, and both cache tiers.
func writeMetricsProm(w http.ResponseWriter, snap Snapshot) {
	w.Header().Set("Content-Type", promContentType)

	promSimple(w, "lbr_queries_total", "counter", "Queries answered successfully.", snap.QueriesServed)
	promSimple(w, "lbr_query_errors_total", "counter", "Queries that failed (parse, execution, or I/O).", snap.QueryErrors)
	promSimple(w, "lbr_rejected_total", "counter", "Requests turned away by admission control.", snap.Rejected)
	promSimple(w, "lbr_timeouts_total", "counter", "Queries cancelled by the per-request timeout.", snap.Timeouts)
	promSimple(w, "lbr_in_flight", "gauge", "Requests currently executing.", snap.InFlight)
	promSimple(w, "lbr_rows_streamed_total", "counter", "Result rows serialized across all queries.", snap.RowsStreamed)
	promSimple(w, "lbr_not_modified_total", "counter", "Conditional requests answered with 304.", snap.NotModified)
	promSimple(w, "lbr_updates_total", "counter", "Update requests applied successfully.", snap.UpdatesServed)
	promSimple(w, "lbr_update_errors_total", "counter", "Update requests that failed during execution.", snap.UpdateErrors)
	promSimple(w, "lbr_update_rejected_total", "counter", "Updates turned away by the write admission bound.", snap.UpdateRejected)
	promSimple(w, "lbr_triples_inserted_total", "counter", "Effective triple inserts across all updates.", snap.TriplesIns)
	promSimple(w, "lbr_triples_deleted_total", "counter", "Effective triple deletes across all updates.", snap.TriplesDel)
	promSimple(w, "lbr_snapshot_generation", "gauge", "Current MVCC snapshot generation of the store.", snap.SnapshotGeneration)

	fmt.Fprintf(w, "# HELP lbr_query_duration_seconds End-to-end latency of served requests.\n# TYPE lbr_query_duration_seconds histogram\n")
	promHistogram(w, "lbr_query_duration_seconds", "", latencyBoundsMS[:], snap.LatencyBuckets, snap.LatencySumMS)

	fmt.Fprintf(w, "# HELP lbr_stage_duration_seconds Per-stage execution time of SELECT queries.\n# TYPE lbr_stage_duration_seconds histogram\n")
	for _, sl := range snap.StageLatency {
		promHistogram(w, "lbr_stage_duration_seconds", fmt.Sprintf("stage=%q", sl.Stage), stageBoundsMS[:], sl.Buckets, sl.SumMS)
	}

	promSimple(w, "lbr_regex_cache_entries", "gauge", "Compiled FILTER regex patterns held by the engine's size-bounded cache.", snap.RegexCacheEntries)

	if snap.WAL != nil {
		promSimple(w, "lbr_wal_appends_total", "counter", "Mutation batches fsynced to the write-ahead log.", snap.WAL.Appends)
		promSimple(w, "lbr_wal_replayed_total", "counter", "WAL entries applied on crash recovery.", snap.WAL.Replayed)
		promSimple(w, "lbr_wal_checkpoints_total", "counter", "WAL truncations after a covering snapshot persisted.", snap.WAL.Checkpoints)
		promSimple(w, "lbr_compactions_total", "counter", "Completed delta-folding compactions.", snap.WAL.Compactions)
		promSimple(w, "lbr_compaction_last_duration_seconds", "gauge", "Build time of the most recent compaction.", snap.WAL.CompactionLastMS/1000.0)
		promSimple(w, "lbr_load_last_duration_seconds", "gauge", "Wall time of the most recent N-Triples load, parse to index install.", snap.WAL.LoadLastMS/1000.0)
		promSimple(w, "lbr_overlay_install_last_duration_seconds", "gauge", "Wall time of the most recent delta overlay install after a write.", snap.WAL.OverlayInstallLastMS/1000.0)
	}

	if rc := snap.ResultCache; rc != nil {
		promSimple(w, "lbr_result_cache_hits_total", "counter", "Result cache hits.", rc.Hits)
		promSimple(w, "lbr_result_cache_misses_total", "counter", "Result cache misses.", rc.Misses)
		promSimple(w, "lbr_result_cache_evictions_total", "counter", "Result cache evictions.", rc.Evictions)
		promSimple(w, "lbr_result_cache_invalidations_total", "counter", "Result cache entries retired by generation advances.", rc.Invalidations)
		promSimple(w, "lbr_result_cache_entries", "gauge", "Result cache resident entries.", rc.Entries)
		promSimple(w, "lbr_result_cache_bytes", "gauge", "Result cache resident bytes.", rc.BytesUsed)
	}

	if bm := snap.BitMatCache; bm != nil {
		promSimple(w, "lbr_bitmat_cache_hits_total", "counter", "BitMat materialization cache hits.", bm.Hits)
		promSimple(w, "lbr_bitmat_cache_misses_total", "counter", "BitMat materialization cache misses.", bm.Misses)
		promSimple(w, "lbr_bitmat_cache_evictions_total", "counter", "BitMat cache LRU evictions.", bm.Evictions)
		promSimple(w, "lbr_bitmat_cache_invalidations_total", "counter", "BitMat cache entries retired by generation advances.", bm.Invalidations)
		promSimple(w, "lbr_bitmat_cache_stale_bypasses_total", "counter", "Builds bypassing the cache from retired snapshots.", bm.StaleBypasses)
		promSimple(w, "lbr_bitmat_cache_entries", "gauge", "BitMat cache resident entries.", bm.Entries)
		promSimple(w, "lbr_bitmat_cache_bytes", "gauge", "BitMat cache resident bytes.", bm.BytesUsed)
	}

	if qm := snap.QueryMemo; qm != nil {
		promSimple(w, "lbr_query_memo_hits_total", "counter", "Reads served from the snapshot's prepared-query memo.", qm.Hits)
		promSimple(w, "lbr_query_memo_misses_total", "counter", "Reads that parsed and prepared their query text.", qm.Misses)
		promSimple(w, "lbr_query_memo_entries", "gauge", "Query texts held by the current snapshot's memo.", qm.Entries)
	}
}
