package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json at the root of the repo
// lists the same names, units and directions, and the regression bound of
// every end-to-end metric; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	What   string
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, so each is defined for reads, which all four
// workloads have; the write figures of http-mixed-rw are per-layer
// metrics, and a write regression reaches ops_per_s there because half of
// that workload's clients write back-to-back.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", "N-Triples bytes in memory → store (WAL, server) ready; median of the run's set-ups"},
	{"ops_per_s", "1/s", "higher", "completed, correct operations (reads + writes) per second of the window"},
	{"read_geomean_ms", "ms", "lower", "geometric mean over query classes, weighted by their share of the reads, of the class's median latency"},
	{"live_heap_mb", "MiB", "lower", "HeapAlloc after two runtime.GC() at the end of the window"},
	{"index_bytes_per_triple", "B", "lower", "SaveIndex length / Store.Len() after set-up"},
}

var perLayerMetrics = []metricDef{
	// Figures of the whole operation mix that are not bounded.
	{"failed_share", "ratio", "lower", "(errors + non-2xx + wrong results) / attempted"},
	{"rows_per_s", "1/s", "higher", "result rows delivered to the clients per second"},
	{"read_p50_ms", "ms", "lower", "median read latency to the last byte or row"},
	{"read_p95_ms", "ms", "lower", "95th percentile read latency"},
	{"write_p50_ms", "ms", "lower", "median update latency, request sent → 2xx acknowledged (durable)"},
	{"write_p95_ms", "ms", "lower", "95th percentile update latency"},
	{"writes_per_s", "1/s", "higher", "acknowledged updates per second"},
	// process
	{"process.cpu_ms_per_op", "ms", "lower", "getrusage user+sys over the window / operations"},
	{"process.alloc_kb_per_op", "KiB", "lower", "TotalAlloc over the window / operations"},
	{"process.gc_pause_ms_total", "ms", "lower", "GC stop-the-world pause over the window"},
	{"process.peak_rss_mb", "MiB", "lower", "peak resident set of the benchmark process"},
	// datagen: the input, not the program
	{"datagen.generate_s", "s", "lower", "time to generate and serialize the dataset"},
	{"datagen.triples", "count", "lower", "triples in the dataset"},
	// rdf
	{"rdf.parse_triples_per_s", "1/s", "higher", "ReadNTriplesParallel over the dataset bytes"},
	{"rdf.dict_terms", "count", "lower", "distinct terms in the dictionary"},
	// bitmat
	{"bitmat.build_s", "s", "lower", "BuildParallel over the parsed graph"},
	{"bitmat.mat_load_us", "us", "lower", "median MatSO(p)+MatOS(p) over the analytic predicates"},
	{"bitmat.clone_us", "us", "lower", "median Matrix.Clone of those matrices"},
	{"bitmat.fold_us", "us", "lower", "median Fold over both axes"},
	{"bitmat.unfold_us", "us", "lower", "median Unfold over both axes with a 50 % mask"},
	{"bitmat.overlay_build_ms", "ms", "lower", "NewOverlay at a delta of 1000"},
	// bitvec
	{"bitvec.row_and_ns", "ns", "lower", "mean Row.And(mask) over sampled rows"},
	{"bitvec.row_foreach_ns_per_bit", "ns", "lower", "Row.ForEach per set bit"},
	// sparql
	{"sparql.parse_us", "us", "lower", "median Parse over the workload's templates"},
	{"sparql.parse_update_us", "us", "lower", "median ParseUpdate over the update stream"},
	// algebra
	{"algebra.rewrite_us", "us", "lower", "median FromQuery → NormalizeUNF → GoSN/GoJ/well-designed check"},
	// engine
	{"engine.init_ms", "ms", "lower", "mean Stats.Init per executed query"},
	{"engine.prune_ms", "ms", "lower", "mean Stats.Prune per executed query"},
	{"engine.join_ms", "ms", "lower", "mean Stats.Join per executed query"},
	{"engine.merge_ms", "ms", "lower", "mean Stats.Merge per executed query"},
	{"engine.self_ms", "ms", "lower", "mean Stats.Total less the four stages: rewrite, plan, assembly"},
	{"engine.prune_ratio", "ratio", "lower", "sum AfterPruning / sum InitialTriples"},
	{"engine.rows_per_op", "count", "higher", "mean rows per completed read"},
	{"engine.cache_hit_ratio", "ratio", "higher", "MatCache hits / (hits + misses) over the window"},
	{"engine.cache_evictions", "count", "lower", "MatCache LRU evictions over the window"},
	{"engine.cache_invalidations", "count", "lower", "MatCache entries retired by generation advances"},
	{"engine.cache_first_touches", "count", "lower", "masked loads declined on a pattern's first touch"},
	{"engine.cache_bytes_used", "B", "lower", "MatCache residency at the end of the window"},
	// results
	{"results.json_rows_per_s", "1/s", "higher", "JSON writer over materialized analytic results"},
	{"results.tsv_rows_per_s", "1/s", "higher", "TSV writer over materialized analytic results"},
	{"results.json_bytes_per_row", "B", "lower", "JSON document bytes per row"},
	// server
	{"server.hit_ms", "ms", "lower", "median client latency of result-cache hits"},
	{"server.miss_ms", "ms", "lower", "median client latency of result-cache misses"},
	{"server.self_ms", "ms", "lower", "mean miss round trip less its paired library replay"},
	{"server.result_cache_hit_ratio", "ratio", "higher", "result-cache hits / (hits + misses) over the window"},
	{"server.result_cache_evictions", "count", "lower", "result-cache evictions over the window"},
	{"server.rejected", "count", "lower", "503 admission rejections, queries and updates"},
	{"server.wire_mb_per_s", "MiB/s", "higher", "response bytes on the wire per second"},
	{"server.gzip_ratio", "ratio", "lower", "wire bytes / document bytes of the gzip-coded responses"},
	// lbr: the root store
	{"lbr.query_self_ms", "ms", "lower", "mean QueryContext wall less Stats.Total: parse, snapshot, row conversion"},
	{"lbr.apply_update_ms", "ms", "lower", "median library ApplyUpdate on the same update stream"},
	{"lbr.wal_appends_per_update", "ratio", "lower", "WAL appends / acknowledged updates"},
	{"lbr.wal_bytes_per_triple", "B", "lower", "WAL growth / triples written"},
	{"lbr.compactions", "count", "higher", "background compactions completed in the window"},
	{"lbr.compaction_last_ms", "ms", "lower", "build time of the last compaction"},
	{"lbr.delta_size_max", "count", "lower", "largest delta overlay sampled in the window"},
	{"lbr.generation_advances", "count", "lower", "snapshot generations installed in the window"},
	{"lbr.read_max_ms", "ms", "lower", "worst read of the window: the stall a median hides"},
	{"lbr.wal_replay_s", "s", "lower", "OpenWAL replay of the run's log into a second store"},
	// trace
	{"trace.overhead_pct", "%", "lower", "100 × (1 − traced / untraced ops_per_s)"},
}

// values maps metric names to measurements.
type values map[string]float64

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// windowSummary is the operation log of a window reduced to the figures
// the metrics are made of.
type windowSummary struct {
	attempted, failed int
	reads, writes     int       // completed and correct
	opsPerS           float64   // sum over clients of correct ops / the client's elapsed time
	rowsPerS          float64   // read rows only
	writesPerS        float64   //
	seconds           float64   // longest client
	readMS            []float64 // ascending
	writeMS           []float64 // ascending
	hitMS, missMS     []float64 // ascending (HTTP reads)
	byClass           []classLatency
	rows              int64
	wire, gzWire      int64
	gzBody            int64
}

// classLatency is one read class of a window: a template, or a family
// of parameterised queries.
type classLatency struct {
	Class    string
	N        int
	MedianMS float64
}

// classGeomean is the paper's summary statistic — the geometric mean over
// queries of each query's time — for a mix: the classes weigh as their
// share of the reads, and a class's time is its median latency. Within a
// class the median is blind to the few reads that waited out a stall or,
// under writes, happened to find their answer still cached; across
// classes a geometric mean has no boundary to fall on, where a percentile
// of a twelve-template round-robin does.
func classGeomean(classes []classLatency) float64 {
	var sum float64
	n := 0
	for _, c := range classes {
		if c.N > 0 && c.MedianMS > 0 {
			sum += float64(c.N) * math.Log(c.MedianMS)
			n += c.N
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func summarize(w *window) windowSummary {
	var s windowSummary
	byClass := make([][]float64, len(w.sched.classes))
	clients := append([]*clientState(nil), w.readers...)
	if w.writer != nil {
		clients = append(clients, w.writer)
	}
	for i, cs := range clients {
		el := w.elapsed[i].Seconds()
		if el > s.seconds {
			s.seconds = el
		}
		okOps, rows := 0, int64(0)
		for _, r := range cs.recs {
			s.attempted++
			if !r.ok {
				s.failed++
				continue
			}
			okOps++
			lat := msOf(r.end - r.start)
			if r.class < 0 {
				s.writes++
				s.writeMS = append(s.writeMS, lat)
				continue
			}
			s.reads++
			rows += int64(r.rows)
			s.readMS = append(s.readMS, lat)
			byClass[r.class] = append(byClass[r.class], lat)
			if w.spec.HTTP {
				if r.hit {
					s.hitMS = append(s.hitMS, lat)
				} else {
					s.missMS = append(s.missMS, lat)
				}
				s.wire += int64(r.wire)
				if r.gzip {
					s.gzWire += int64(r.wire)
					s.gzBody += int64(r.body)
				}
			}
		}
		// Each client ran back-to-back from the window's start to its own
		// last completion, so its rate is its count over that time; the
		// clients' rates add.
		s.rows += rows
		if el > 0 {
			s.opsPerS += float64(okOps) / el
			s.rowsPerS += float64(rows) / el
			if cs == w.writer {
				s.writesPerS = float64(okOps) / el
			}
		}
	}
	sort.Float64s(s.readMS)
	sort.Float64s(s.writeMS)
	sort.Float64s(s.hitMS)
	sort.Float64s(s.missMS)
	for i, ms := range byClass {
		s.byClass = append(s.byClass, classLatency{w.sched.classes[i], len(ms), median(ms)})
	}
	return s
}

// endToEndValues are the bounded metrics of one untraced window.
func endToEndValues(s windowSummary, setupS, heapMiB, indexBPT float64) values {
	return values{
		"setup_s":                setupS,
		"ops_per_s":              s.opsPerS,
		"read_geomean_ms":        classGeomean(s.byClass),
		"live_heap_mb":           heapMiB,
		"index_bytes_per_triple": indexBPT,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// windowLayerValues are the per-layer metrics a window itself yields: the
// counters the program returns, differenced over the window, and the
// operation log split by layer. A metric with no meaning for the workload
// (a write figure on a read-only workload, a server figure on the library
// path) reads 0.
func windowLayerValues(w *window, s windowSummary) values {
	v := values{}
	ops := float64(s.reads + s.writes)
	v["failed_share"] = ratio(float64(s.failed), float64(s.attempted))
	v["rows_per_s"] = s.rowsPerS
	v["read_p50_ms"] = quantileSorted(s.readMS, 0.50)
	v["read_p95_ms"] = quantileSorted(s.readMS, 0.95)
	v["write_p50_ms"] = quantileSorted(s.writeMS, 0.50)
	v["write_p95_ms"] = quantileSorted(s.writeMS, 0.95)
	v["writes_per_s"] = s.writesPerS

	b, a := w.before, w.after
	v["process.cpu_ms_per_op"] = ratio(durMS(a.cpu-b.cpu), ops)
	v["process.alloc_kb_per_op"] = ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1024, ops)
	v["process.gc_pause_ms_total"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	v["process.peak_rss_mb"] = peakRSSMiB()

	// Engine stages: on the library path from the Result.Stats of the
	// workload's own calls; over HTTP from the server's stage histograms,
	// which cover every execution (that is, every miss).
	var st stageSums
	for _, cs := range w.readers {
		st.add(&cs.stages)
	}
	if w.spec.HTTP {
		stage := func(i int) (sumMS float64, n int64) {
			if i >= len(a.srv.StageLatency) || i >= len(b.srv.StageLatency) {
				return 0, 0
			}
			return a.srv.StageLatency[i].SumMS - b.srv.StageLatency[i].SumMS, a.srv.StageLatency[i].Count - b.srv.StageLatency[i].Count
		}
		for i, name := range []string{"engine.init_ms", "engine.prune_ms", "engine.join_ms", "engine.merge_ms"} {
			sum, n := stage(i)
			v[name] = ratio(sum, float64(n))
		}
	} else {
		n := float64(st.queries)
		v["engine.init_ms"] = ratio(durMS(st.init), n)
		v["engine.prune_ms"] = ratio(durMS(st.prune), n)
		v["engine.join_ms"] = ratio(durMS(st.join), n)
		v["engine.merge_ms"] = ratio(durMS(st.merge), n)
	}
	// These three need Result.Stats itself: over HTTP they come from the
	// paired replays of a traced window.
	n := float64(st.queries)
	v["engine.self_ms"] = ratio(durMS(st.total-st.init-st.prune-st.join-st.merge), n)
	v["engine.prune_ratio"] = ratio(float64(st.afterPruning), float64(st.initialTriples))
	v["lbr.query_self_ms"] = ratio(durMS(st.wall-st.total), n)
	v["engine.rows_per_op"] = ratio(float64(s.rows), float64(s.reads))

	ch, cm := float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Misses-b.cache.Misses)
	v["engine.cache_hit_ratio"] = ratio(ch, ch+cm)
	v["engine.cache_evictions"] = float64(a.cache.Evictions - b.cache.Evictions)
	v["engine.cache_invalidations"] = float64(a.cache.Invalidations - b.cache.Invalidations)
	v["engine.cache_first_touches"] = float64(a.cache.FirstTouches - b.cache.FirstTouches)
	v["engine.cache_bytes_used"] = float64(a.cache.BytesUsed)

	v["server.hit_ms"] = quantileSorted(s.hitMS, 0.5)
	v["server.miss_ms"] = quantileSorted(s.missMS, 0.5)
	v["server.self_ms"] = ratio(durMS(st.replayMissRTT-st.replayWall), float64(st.replays))
	rh, rm := float64(a.rc.Hits-b.rc.Hits), float64(a.rc.Misses-b.rc.Misses)
	v["server.result_cache_hit_ratio"] = ratio(rh, rh+rm)
	v["server.result_cache_evictions"] = float64(a.rc.Evictions - b.rc.Evictions)
	v["server.rejected"] = float64(a.srv.Rejected - b.srv.Rejected + a.srv.UpdateRejected - b.srv.UpdateRejected)
	v["server.wire_mb_per_s"] = ratio(float64(s.wire)/(1<<20), s.seconds)
	v["server.gzip_ratio"] = ratio(float64(s.gzWire), float64(s.gzBody))

	acked := float64(s.writes)
	v["lbr.wal_appends_per_update"] = ratio(float64(a.wal.Appends-b.wal.Appends), acked)
	written := float64(a.srv.TriplesIns - b.srv.TriplesIns + a.srv.TriplesDel - b.srv.TriplesDel)
	v["lbr.wal_bytes_per_triple"] = ratio(float64(a.walBytes-b.walBytes), written)
	v["lbr.compactions"] = float64(a.wal.Compactions - b.wal.Compactions)
	v["lbr.compaction_last_ms"] = 0
	if a.wal.Compactions > b.wal.Compactions {
		v["lbr.compaction_last_ms"] = a.wal.CompactionLastMS
	}
	v["lbr.delta_size_max"] = float64(w.deltaMax)
	v["lbr.generation_advances"] = float64(a.gen - b.gen)
	v["lbr.read_max_ms"] = 0
	if n := len(s.readMS); n > 0 {
		v["lbr.read_max_ms"] = s.readMS[n-1]
	}
	return v
}
