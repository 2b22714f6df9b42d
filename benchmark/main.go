// Command benchmark is the repo's one gated benchmark: four closed-loop
// workloads over a generated dataset, end-to-end metrics with regression
// bounds (BENCHMARK.json), per-layer metrics from a traced run, and a
// correctness gate in front of every timing. See README.md beside this
// file.
//
//	bash benchmark/run.sh --workload analytic-scan --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh --seed 1                  # all four, untraced
//	bash benchmark/run.sh --seed 1 --trace 1 --out spans.json
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// maxProcs pins the benchmark process: the box has two cores, and no
// workload uses more than two client goroutines or connections.
const maxProcs = 2

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", defaultSeed, "seed of the dataset, the query constants, the schedules and the update payloads")
		seconds  = flag.Float64("seconds", 8, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: record spans, run the kernel probes and print the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "traced runs: write the recorded spans to this file")
		record   = flag.String("record", "", "append each run's metrics to this file, one JSON line per run, for --compare")
		compare  = flag.Bool("compare", false, "compare two --record files given as arguments against the bounds of BENCHMARK.json")
		smoke    = flag.Bool("smoke", false, "run all four workloads for one second each at 1/16 scale, untraced and traced")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two --record files"))
		}
		breach, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breach {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	names := []string{*workload}
	if *workload == "all" || *smoke {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			fatal(fmt.Errorf("unknown workload %q; the workloads are %s", n, strings.Join(workloadNames(), ", ")))
		}
	}
	traces := []bool{*trace != 0}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Warm: 2 * time.Second, Setups: 3, Out: *out}
	if *smoke {
		traces = []bool{false, true}
		cfg.Seconds, cfg.Smoke, cfg.Warm, cfg.Setups = 1, true, 200*time.Millisecond, 1
	}

	allCorrect := true
	for _, traced := range traces {
		for _, n := range names {
			cfg.Workload, cfg.Trace = n, traced
			cfg.Dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
			if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
				fatal(err)
			}
			rep, err := run(cfg)
			os.RemoveAll(cfg.Dir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", n, err))
			}
			printReport(os.Stdout, rep)
			if *record != "" {
				if err := appendRecord(*record, rep); err != nil {
					fatal(err)
				}
			}
			allCorrect = allCorrect && rep.Correct
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// resultLine is the last line a run prints: the contract with the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics selects exactly the metrics the run's mode owes the
// driver, in definition order.
func (rep *runReport) contractMetrics() ([]metricDef, values) {
	if rep.Config.Trace {
		return perLayerMetrics, rep.PerLayer
	}
	return endToEndMetrics, rep.EndToEnd
}

func printReport(w *os.File, rep *runReport) {
	defs, vals := rep.contractMetrics()
	ds := rep.Dataset
	mode := "untraced"
	if rep.Config.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  window=%.2fs  GOMAXPROCS=%d\n", rep.Config.Workload, rep.Config.Seed, mode, rep.WindowS, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "dataset: %d triples, %d bytes of N-Triples, fnv64=%016x\n", ds.Triples, len(ds.NT), ds.Fingerprint)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d reads=%d writes=%d", rep.Attempted, rep.Failed, rep.Samples["reads"], rep.Samples["writes"])
	if len(rep.SetupRuns) > 0 && !rep.Config.Trace {
		fmt.Fprintf(w, " set-ups=%.3v s", rep.SetupRuns)
	}
	if spec, _ := workloadByName(rep.Config.Workload); spec.Writes {
		fmt.Fprintf(w, " compactions=%d", rep.Compactions)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "phases:")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, " %s=%.1fs", p.Name, p.Seconds)
	}
	fmt.Fprintln(w)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.Name]
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s %s\n", d.Name, v, d.Unit, sampleNote(rep, d.Name))
	}
	if pct, ok := rep.Samples["read_tail_pct"]; ok {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s highest percentile with ten samples beyond it: p%d of %d reads\n", "(read tail)", rep.EndToEnd["read_tail_ms"], "ms", pct, rep.Samples["reads"])
	}
	fmt.Fprintln(w, "  median read latency by class:")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "    %-20s %8d reads %12.3f ms\n", c.Class, c.N, c.MedianMS)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintln(w, "  self time by span, as a share of the summed operation time:")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "    %-20s %8d spans %12.3f ms %7.2f %%\n", l.Name, l.Spans, l.SelfMS, 100*l.Share)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}

func sampleNote(rep *runReport, name string) string {
	switch {
	case name == "setup_s":
		return fmt.Sprintf("median of %d set-ups", rep.Samples["setups"])
	case strings.HasPrefix(name, "read_"):
		return fmt.Sprintf("n=%d reads", rep.Samples["reads"])
	case strings.HasPrefix(name, "write"):
		return fmt.Sprintf("n=%d writes", rep.Samples["writes"])
	case name == "ops_per_s":
		return fmt.Sprintf("n=%d operations", rep.Samples["reads"]+rep.Samples["writes"])
	}
	return ""
}

// record is one run in a --record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Correct  bool    `json:"correct"`
	Metrics  values  `json:"metrics"`
	Seconds  float64 `json:"seconds"`
}

func appendRecord(path string, rep *runReport) error {
	_, vals := rep.contractMetrics()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := record{rep.Config.Workload, rep.Config.Seed, rep.Config.Trace, rep.Correct, vals, rep.Config.Seconds}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
