package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	lbr "repro"
	"repro/internal/rdf"
	"repro/internal/results"
)

func TestQuantilesAndClassGeomean(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := quantileSorted(s, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantileSorted(s, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 of 1..5 = %v, want 4.8", got)
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an unsorted even sample = %v, want 4", got)
	}
	// Two classes, one read at 1 ms and three at 16 ms: exp((ln 1 + 3 ln 16)/4) = 8.
	classes := []classLatency{{"a", 1, 1}, {"b", 3, 16}, {"unseen", 0, 0}}
	if got := classGeomean(classes); math.Abs(got-8) > 1e-9 {
		t.Errorf("classGeomean = %v, want 8", got)
	}
	if got := classGeomean(nil); got != 0 {
		t.Errorf("classGeomean of nothing = %v, want 0", got)
	}
}

// The highest percentile reported is the one with ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n   int
		pct int
		ok  bool
	}{{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}} {
		pct, _, ok := tailPercentile(mk(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("tailPercentile(n=%d) = p%d ok=%v, want p%d ok=%v", c.n, pct, ok, c.pct, c.ok)
		}
	}
	if _, v, _ := tailPercentile(mk(201)); v != 190 {
		t.Errorf("p95 of 0..200 = %v, want 190", v)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of three = %v, want 1", got)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if got := quartileSpread([]float64{10, 20}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of two = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, Parent: 0, Start: 30, End: 60},   // overlaps a: the union is 10..60
		{Name: "c", Op: 1, Parent: 0, Start: 90, End: 120},  // clipped to the parent: 90..100
		{Name: "a1", Op: 1, Parent: 1, Start: 10, End: 25},  // child of a
		{Name: "lone", Op: 2, Parent: -1, Start: 5, End: 7}, // no children
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 30, 15, 2}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	b := &spanBuf{spans: spans}
	var opShare float64
	for _, l := range summarizeSpans([]*spanBuf{b, nil}) {
		if l.Name == "op" {
			opShare = l.Share
		}
	}
	if want := 40.0 / 102.0; math.Abs(opShare-want) > 1e-12 {
		t.Errorf("share of op self time = %v, want %v", opShare, want)
	}
	var nilBuf *spanBuf
	if nilBuf.add("x", 1, -1, time.Now(), time.Now()) != -1 {
		t.Error("a nil span buffer must record nothing")
	}
}

// opSequenceHash folds the whole read schedule and the first updates of
// the write stream: what a run sends, in order.
func opSequenceHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	ds, err := generateDataset(seed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, spec := range workloads {
		for _, op := range scheduleFor(spec, ds, seed).ops {
			h.Write([]byte(op.q.Text))
			h.Write([]byte{byte(op.format), map[bool]byte{true: 1}[op.gzip]})
		}
	}
	us, err := newUpdateStream(ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		u := us.next()
		h.Write([]byte(u.Text))
		us.ack(u)
	}
	h.Write(ds.NT)
	return h.Sum64()
}

func TestSameSeedSameOperations(t *testing.T) {
	a, b, c := opSequenceHash(t, 7), opSequenceHash(t, 7), opSequenceHash(t, 8)
	if a != b {
		t.Errorf("seed 7 gave two different operation sequences: %016x, %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same operation sequence %016x", a)
	}
}

func TestFingerprintPinned(t *testing.T) {
	ds, err := generateDataset(defaultSeed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.checkFingerprint(defaultSeed); err != nil {
		t.Error(err)
	}
	ds.Fingerprint++
	if err := ds.checkFingerprint(defaultSeed); err == nil {
		t.Error("a changed dataset must fail the fingerprint check")
	}
	if err := ds.checkFingerprint(defaultSeed + 1); err != nil {
		t.Errorf("only the default seed is pinned: %v", err)
	}
}

// The schedules' class mix must not depend on the seed.
func TestScheduleShapeIsSeedIndependent(t *testing.T) {
	shape := func(seed int64) string {
		ds, err := generateDataset(seed, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, spec := range workloads {
			s := scheduleFor(spec, ds, seed)
			counts := make([]int, len(s.classes))
			tsv, gz := 0, 0
			for _, op := range s.ops {
				counts[op.class]++
				if op.format == formatTSV {
					tsv++
				}
				if op.gzip {
					gz++
				}
			}
			sb.WriteString(spec.Name)
			for i, c := range s.classes {
				fmt.Fprintf(&sb, " %s=%d", c, counts[i])
			}
			if spec.HTTP {
				if share := float64(tsv) / float64(len(s.ops)); math.Abs(share-0.3) > 0.01 {
					t.Errorf("%s: TSV share %.3f, want 0.30", spec.Name, share)
				}
				if share := float64(gz) / float64(len(s.ops)); math.Abs(share-0.5) > 0.01 {
					t.Errorf("%s: gzip share %.3f, want 0.50", spec.Name, share)
				}
			}
			if len(s.ops)%s.round != 0 {
				t.Errorf("%s: %d ops is not a whole number of rounds of %d", spec.Name, len(s.ops), s.round)
			}
		}
		return sb.String()
	}
	if a, b := shape(3), shape(4); a != b {
		t.Errorf("class mix differs between seeds:\n%s\n%s", a, b)
	}
}

// The cheap per-operation row counters must agree with the full parsers,
// and every view of one result must be the same multiset.
func TestRowCountersAndRowSets(t *testing.T) {
	ds, err := generateDataset(defaultSeed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	st := lbr.NewStore()
	if _, err := st.LoadNTriples(bytes.NewReader(ds.NT)); err != nil {
		t.Fatal(err)
	}
	qs := append(analyticQueries()[:3], fixedSelectiveQueries()...)
	qs = append(qs, deptFaculty(ds.Departments[0]), entityCard(ds.Places[0]))
	for _, q := range qs {
		res, err := st.Query(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Class, err)
		}
		want := rowSetOfResult(res)
		for _, f := range []format{formatJSON, formatTSV} {
			var buf bytes.Buffer
			sw := results.NewWriter(f.serializer(), &buf)
			sw.Begin(res.Vars)
			for i := 0; i < res.Len(); i++ {
				sw.Row(res.Row(i))
			}
			sw.End()
			rows, ok := checkDocument(buf.Bytes(), f, res.Vars)
			if !ok || rows != res.Len() {
				t.Errorf("%s as %s: counted %d rows ok=%v, want %d", q.Class, f, rows, ok, res.Len())
			}
			var got rowSet
			if f == formatJSON {
				got, err = rowSetOfJSON(buf.Bytes())
			} else {
				got, err = rowSetOfTSV(buf.Bytes())
			}
			if err != nil || !got.equal(want) {
				t.Errorf("%s as %s: parsed %+v (%v), want %+v", q.Class, f, got, err, want)
			}
			if _, ok := checkDocument(buf.Bytes(), f, append([]string{"other"}, res.Vars...)); ok {
				t.Errorf("%s as %s: a document with the wrong variables passed the check", q.Class, f)
			}
		}
	}
	if _, ok := countJSONRows([]byte(`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":"}{\"["}}`)); ok {
		t.Error("an unbalanced document must not count as well formed")
	}
	if n, ok := countJSONRows([]byte(`{"results":{"bindings":[ {"a":{"type":"literal","value":"{"}} , {} ]},"head":{"vars":["a"]}}`)); !ok || n != 2 {
		t.Errorf("counted %d rows ok=%v in a reordered, respaced document, want 2", n, ok)
	}
}

func TestNTLineMatchesWriter(t *testing.T) {
	g := rdf.NewGraph()
	ts := []rdf.Triple{rdf.T("http://a", "http://p", "http://b"), rdf.TL("http://a", "http://q", "tab\there \"quoted\"")}
	g.AddAll(ts)
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	want, err := sumOfNTriples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got tripleSetSum
	for _, tr := range ts {
		got.add(tr)
	}
	if got != want {
		t.Errorf("shadow arithmetic %+v disagrees with the N-Triples writer %+v", got, want)
	}
	got.remove(ts[0])
	got.add(ts[0])
	if got != want {
		t.Error("remove then add must cancel")
	}
}

func TestComparePair(t *testing.T) {
	lower := boundedMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.05}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	for _, c := range []struct {
		m    boundedMetric
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.4), verdictOK},
		{lower, steady(10), steady(10.6), verdictBreach},
		{lower, steady(10), steady(5), verdictOK},
		{higher, steady(100), steady(96), verdictOK},
		{higher, steady(100), steady(94), verdictBreach},
		{higher, steady(100), steady(200), verdictOK},
		{lower, []float64{8, 10, 12, 9, 11}, steady(10), verdictUnresolved},
		{lower, steady(10), nil, verdictMissing},
	} {
		if got := comparePair(c.m, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s %v→%v: verdict %s (worse %+.3f), want %s", c.m.Name, c.a[0], c.b, got.Verdict, got.Worse, c.want)
		}
	}
}

// BENCHMARK.json and the program must list the same workloads and
// metrics, and stay within the driver's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("the end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(bf.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range bf.EndToEnd {
		seen[m.Name] = true
	}
	for i, m := range bf.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("%s (%s): name or unit too long", m.Name, m.Unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if got := strings.Join(bf.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command = %q, want bash benchmark/run.sh", got)
	}
}

// The smoke path: all four workloads, untraced and traced, on the 1/16
// dataset, so the benchmark code cannot rot. Every contract metric must
// be present, and the end-to-end ones non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: spec.Name, Seed: defaultSeed, Seconds: 0.4, Trace: traced, Smoke: true,
				Warm: 50 * time.Millisecond, Setups: 1, Dir: dir, Out: filepath.Join(dir, "spans.json")}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", spec.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			defs, vals := rep.contractMetrics()
			for _, d := range defs {
				v, ok := vals[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not a number (%v)", spec.Name, traced, d.Name, v)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.Name, d.Name, v)
				}
			}
			if traced {
				if fi, err := os.Stat(cfg.Out); err != nil || fi.Size() == 0 {
					t.Errorf("%s: traced run wrote no spans: %v", spec.Name, err)
				}
				if len(rep.Layers) == 0 {
					t.Errorf("%s: traced run has no span summary", spec.Name)
				}
				if spec.Writes && rep.PerLayer["lbr.wal_replay_s"] <= 0 {
					t.Errorf("%s: the WAL replay was not timed", spec.Name)
				}
			}
		}
	}
}
