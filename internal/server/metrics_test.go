package server

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	lbr "repro"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestMetricsHistogramViewsPinned feeds the histograms a fixed sequence of
// requests, each with its wall time and engine stage times, and pins the
// bytes of both /metrics views against golden files: the JSON le_ms
// labels, per-bucket counts, latency_sum_ms and stage_latency, and the
// Prometheus le, _sum and _count lines. The durations sit on, below and
// above every bound, carry sub-microsecond remainders that the sums
// truncate, and include a request whose stages outlast its wall time, so
// serialize clamps to zero.
func TestMetricsHistogramViewsPinned(t *testing.T) {
	us := time.Microsecond
	ms := time.Millisecond
	requests := []struct {
		wall  time.Duration
		stats lbr.Stats
	}{
		{wall: 150 * us, stats: lbr.Stats{Init: 40 * us, Prune: 30 * us, Join: 20 * us, Merge: 10 * us}},
		{wall: 1 * ms, stats: lbr.Stats{Init: 200 * us, Prune: 201 * us, Join: 100 * us, Merge: 1}},
		{wall: 4*ms + 999*us + 999, stats: lbr.Stats{Init: 1 * ms, Prune: 2 * ms, Join: 999 * us}},
		{wall: 5 * ms, stats: lbr.Stats{Init: 5 * ms, Prune: 1 * ms}},
		{wall: 25*ms + 1, stats: lbr.Stats{Init: 24 * ms, Join: 1*ms + 1}},
		{wall: 99 * ms, stats: lbr.Stats{Prune: 25 * ms, Join: 70 * ms, Merge: 3 * ms}},
		{wall: 500 * ms, stats: lbr.Stats{Init: 100 * ms, Prune: 100 * ms, Join: 250 * ms, Merge: 49 * ms}},
		{wall: 2500 * ms, stats: lbr.Stats{Init: 500 * ms, Join: 1500 * ms, Merge: 499 * ms}},
		{wall: 7 * time.Second, stats: lbr.Stats{Join: 6 * time.Second}},
	}
	var m Metrics
	for _, rq := range requests {
		m.observeLatency(rq.wall)
		m.observeStages(&rq.stats, rq.wall)
	}
	// Replays and 304s observe latency without stages.
	m.observeLatency(300 * us)
	m.observeLatency(2 * ms)

	snap := m.Snapshot()
	jsonRec := httptest.NewRecorder()
	writeMetricsJSON(jsonRec, snap)
	promRec := httptest.NewRecorder()
	writeMetricsProm(promRec, snap)

	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"metrics_pinned.json", jsonRec.Body.Bytes()},
		{"metrics_pinned.prom", promRec.Body.Bytes()},
	} {
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, c.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs from the golden file:\n got:\n%s\nwant:\n%s", c.file, c.got, want)
		}
	}
}
