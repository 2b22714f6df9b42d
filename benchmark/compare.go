package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRecords groups the untraced runs of a --record file by workload
// and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run of %s (seed %d) was incorrect; it has no latency to compare", path, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// verdict of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// comparison is one (workload, metric) pair of two sets of runs.
type comparison struct {
	Workload, Metric string
	MedianA, MedianB float64
	SpreadA, SpreadB float64 // quartile distance as a share of the median
	Worse            float64 // share of A's median by which B is worse; negative when better
	Bound            float64
	Verdict          string
}

// comparePair applies the benchmark's own rule: B may be worse than A by
// at most the bound; where either side's run-to-run spread exceeds the
// bound, the pair is unresolved rather than unchanged.
func comparePair(m boundedMetric, a, b []float64) comparison {
	c := comparison{Metric: m.Name, Bound: m.Bound}
	if len(a) == 0 || len(b) == 0 {
		c.Verdict = verdictMissing
		return c
	}
	c.MedianA, c.MedianB = median(a), median(b)
	c.SpreadA, c.SpreadB = quartileSpread(a), quartileSpread(b)
	if c.MedianA != 0 {
		c.Worse = (c.MedianB - c.MedianA) / math.Abs(c.MedianA)
		if m.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	switch {
	case c.SpreadA > m.Bound || c.SpreadB > m.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse > m.Bound:
		c.Verdict = verdictBreach
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareFiles prints, per workload, every end-to-end metric's change
// from A to B against its bound, and reports whether any bound is
// breached.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (breach bool, err error) {
	bf, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	for _, wl := range bf.Workloads {
		nA, nB := 0, 0
		counts := map[string]int{}
		fmt.Fprintf(w, "%s\n", wl.Name)
		fmt.Fprintf(w, "  %-24s %14s %14s %9s %8s %8s %7s  %s\n", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			c := comparePair(m, a[wl.Name][m.Name], b[wl.Name][m.Name])
			nA, nB = len(a[wl.Name][m.Name]), len(b[wl.Name][m.Name])
			counts[c.Verdict]++
			if c.Verdict == verdictBreach {
				breach = true
			}
			fmt.Fprintf(w, "  %-24s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
				m.Name, c.MedianA, c.MedianB, 100*c.Worse, 100*c.SpreadA, 100*c.SpreadB, 100*c.Bound, c.Verdict)
		}
		fmt.Fprintf(w, "  => %s: %d runs vs %d runs: %d ok, %d unresolved, %d breached, %d missing\n",
			wl.Name, nA, nB, counts[verdictOK], counts[verdictUnresolved], counts[verdictBreach], counts[verdictMissing])
	}
	return breach, nil
}
