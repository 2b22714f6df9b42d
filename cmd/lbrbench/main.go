// Command lbrbench regenerates the paper's evaluation tables on the
// synthetic datasets (see DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for recorded outputs).
//
// Usage:
//
//	lbrbench -table all
//	lbrbench -table 6.2 -lubm-univ 8
//	lbrbench -table index-sizes
//	lbrbench -table ablations
//	lbrbench -table parallel -workers 8 -json BENCH_parallel.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func main() {
	var (
		table    = flag.String("table", "all", "which experiment: 6.1|6.2|6.3|6.4|index-sizes|ablations|crossover|parallel|union|build|server|cache|trace|all")
		lubmU    = flag.Int("lubm-univ", 16, "LUBM scale: universities")
		uniprotP = flag.Int("uniprot-proteins", 20000, "UniProt scale: proteins")
		dbpediaE = flag.Int("dbpedia-entities", 40000, "DBPedia scale: entities")
		runs     = flag.Int("runs", 3, "timed repetitions per query (after one warm-up)")
		verify   = flag.Bool("verify", true, "cross-check engines' results")
		workers  = flag.Int("workers", 0, "worker goroutines for -table parallel (0 = GOMAXPROCS)")
		jsonPath = flag.String("json", "", "write the -table parallel comparison to this JSON file")
	)
	flag.Parse()
	opts := bench.RunOptions{Runs: *runs, Verify: *verify}

	want := func(names ...string) bool {
		for _, n := range names {
			if *table == n {
				return true
			}
		}
		return *table == "all"
	}

	var lubm, uniprot, dbpedia *bench.Dataset
	build := func() {
		var err error
		if lubm == nil && want("6.1", "6.2", "index-sizes", "ablations", "parallel", "union", "build", "server", "cache", "trace") {
			step("generating LUBM-like dataset (%d universities)", *lubmU)
			lubm, err = bench.BuildLUBM(*lubmU)
			check(err)
			step("LUBM: %d triples", lubm.Graph.Len())
		}
		if uniprot == nil && want("6.1", "6.3", "index-sizes") {
			step("generating UniProt-like dataset (%d proteins)", *uniprotP)
			uniprot, err = bench.BuildUniProt(*uniprotP)
			check(err)
			step("UniProt: %d triples", uniprot.Graph.Len())
		}
		if dbpedia == nil && want("6.1", "6.4", "index-sizes") {
			step("generating DBPedia-like dataset (%d entities)", *dbpediaE)
			dbpedia, err = bench.BuildDBPedia(*dbpediaE)
			check(err)
			step("DBPedia: %d triples", dbpedia.Graph.Len())
		}
	}
	build()

	if want("6.1") {
		stats := map[string]rdf.Stats{}
		if lubm != nil {
			stats["LUBM"] = lubm.Graph.Stats()
		}
		if uniprot != nil {
			stats["UniProt"] = uniprot.Graph.Stats()
		}
		if dbpedia != nil {
			stats["DBPedia"] = dbpedia.Graph.Stats()
		}
		bench.FprintTable61(os.Stdout, stats)
		fmt.Println()
	}
	runTable := func(ds *bench.Dataset, title string) {
		step("running %s", title)
		ms, err := bench.RunTable(ds, opts)
		check(err)
		bench.FprintTable(os.Stdout, title, ms)
		gm := func(pick func(bench.Measurement) time.Duration) float64 {
			return bench.GeometricMeanMillis(ms, pick)
		}
		fmt.Printf("geometric means (ms): LBR=%.2f Virt=%.2f Monet=%.2f\n\n",
			gm(func(m bench.Measurement) time.Duration { return m.TTotal }),
			gm(func(m bench.Measurement) time.Duration { return m.TVirt }),
			gm(func(m bench.Measurement) time.Duration { return m.TMonet }))
	}
	if want("6.2") && lubm != nil {
		runTable(lubm, fmt.Sprintf("Table 6.2: LUBM (%d triples)", lubm.Graph.Len()))
	}
	if want("6.3") && uniprot != nil {
		runTable(uniprot, fmt.Sprintf("Table 6.3: UniProt (%d triples)", uniprot.Graph.Len()))
	}
	if want("6.4") && dbpedia != nil {
		runTable(dbpedia, fmt.Sprintf("Table 6.4: DBPedia (%d triples)", dbpedia.Graph.Len()))
	}

	if want("index-sizes") {
		fmt.Println("Index sizes (Section 6.2 / hybrid-compression claim of Section 4)")
		fmt.Printf("%-10s %8s %14s %14s %9s\n", "Dataset", "#BitMats", "hybrid(bytes)", "rle(bytes)", "saving")
		for _, ds := range []*bench.Dataset{lubm, uniprot, dbpedia} {
			if ds == nil {
				continue
			}
			rep := ds.Index.Sizes()
			fmt.Printf("%-10s %8d %14d %14d %8.1f%%\n",
				ds.Name, rep.BitMats, rep.HybridBytes(), rep.RLEBytes(), rep.Savings()*100)
		}
		fmt.Println()
	}

	if want("ablations") && lubm != nil {
		runAblations(lubm, *runs)
	}

	if want("parallel") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		step("running sequential-vs-parallel comparison (workers=%d)", w)
		ms, err := bench.RunParallelTable(lubm, w, *runs)
		check(err)
		bench.FprintParallelTable(os.Stdout,
			fmt.Sprintf("Parallel join: LUBM (%d triples), %d workers", lubm.Graph.Len(), w), ms)
		fmt.Println()
		if *jsonPath != "" {
			rep := bench.NewParallelReport(w, *runs, ms)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteParallelJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("union") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		step("running UNION branch-scheduling comparison (workers=%d)", w)
		ms, err := bench.RunUnionTable(lubm, w, *runs)
		check(err)
		bench.FprintUnionTable(os.Stdout,
			fmt.Sprintf("Parallel UNION branches: LUBM (%d triples), %d workers", lubm.Graph.Len(), w), ms)
		fmt.Println()
		// -json is shared with the other tables; write the union report
		// only when this run is specifically the union table.
		if *jsonPath != "" && *table == "union" {
			rep := bench.NewUnionReport(w, *runs, ms)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteUnionJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("build") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		step("running sequential-vs-parallel build comparison (workers=%d)", w)
		ms, err := bench.RunBuildTable([]*bench.Dataset{lubm}, w, *runs)
		check(err)
		bench.FprintBuildTable(os.Stdout,
			fmt.Sprintf("Parallel build: LUBM (%d triples), %d workers", lubm.Graph.Len(), w), ms)
		fmt.Println()
		// -json is shared with -table parallel; write the build report only
		// when this run is specifically the build table.
		if *jsonPath != "" && *table == "build" {
			rep := bench.NewBuildReport(w, *runs, ms)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteBuildJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("server") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		maxConc := 4 * w // the server's own default, recorded in the report
		step("running SPARQL Protocol server bench (workers=%d, max-concurrent=%d)", w, maxConc)
		ms, tp, err := bench.RunServerTable(lubm, w, maxConc, *runs)
		check(err)
		bench.FprintServerTable(os.Stdout,
			fmt.Sprintf("SPARQL server: LUBM (%d triples) over HTTP, %d workers", lubm.Graph.Len(), w), ms, tp)
		fmt.Println()
		// -json is shared with the other tables; write the server report
		// only when this run is specifically the server table.
		if *jsonPath != "" && *table == "server" {
			rep := bench.NewServerReport(w, maxConc, *runs, ms, tp)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteServerJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("cache") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		step("running cross-query BitMat cache comparison (workers=%d)", w)
		ms, totals, err := bench.RunCacheTable(lubm, *workers, *runs)
		check(err)
		bench.FprintCacheTable(os.Stdout,
			fmt.Sprintf("Cross-query BitMat cache: LUBM (%d triples), %d workers", lubm.Graph.Len(), w), ms, totals)
		fmt.Println()
		// -json is shared with the other tables; write the cache report
		// only when this run is specifically the cache table.
		if *jsonPath != "" && *table == "cache" {
			// The budget recorded is the one the benchmarked store ran
			// with, taken from its own counters rather than re-derived.
			rep := bench.NewCacheReport(w, *runs, totals.Budget, ms, totals)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteCacheJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("trace") && lubm != nil {
		w := engine.Options{Workers: *workers}.EffectiveWorkers()
		step("running tracing-overhead comparison (workers=%d)", w)
		ms, nilNs, err := bench.RunTraceTable(lubm, *workers, *runs)
		check(err)
		bench.FprintTraceTable(os.Stdout,
			fmt.Sprintf("Query tracing: LUBM (%d triples), %d workers", lubm.Graph.Len(), w), ms, nilNs)
		fmt.Println()
		// -json is shared with the other tables; write the trace report
		// only when this run is specifically the trace table.
		if *jsonPath != "" && *table == "trace" {
			rep := bench.NewTraceReport(w, *runs, nilNs, ms)
			f, err := os.Create(*jsonPath)
			check(err)
			check(bench.WriteTraceJSON(f, rep))
			check(f.Close())
			step("wrote %s", *jsonPath)
		}
	}

	if want("crossover") {
		step("running selectivity crossover sweep")
		pts, err := bench.RunCrossover([]int{0, 1000, 5000, 20000, 80000}, *runs)
		check(err)
		bench.FprintCrossover(os.Stdout, pts)
		fmt.Println()
	}
}

// runAblations measures the design-choice ablations of DESIGN.md section 5
// on the LUBM workload.
func runAblations(ds *bench.Dataset, runs int) {
	fmt.Println("Ablations (LUBM Q1-Q3): total time per engine configuration")
	// Workers pinned to 1 throughout: the ablations isolate the paper's
	// design choices, so the parallel layer must not blur the comparison.
	configs := []struct {
		name string
		opts engine.Options
	}{
		{"full (paper)", engine.Options{Workers: 1}},
		{"no-prune", engine.Options{DisablePruning: true, Workers: 1}},
		{"no-active-prune", engine.Options{DisableActivePruning: true, Workers: 1}},
		{"naive-jvar-order", engine.Options{NaiveJvarOrder: true, Workers: 1}},
	}
	fmt.Printf("%-18s", "config")
	for _, q := range ds.Queries[:3] {
		fmt.Printf(" %12s", q.ID)
	}
	fmt.Println()
	for _, cfg := range configs {
		eng := engine.New(ds.Index, cfg.opts)
		fmt.Printf("%-18s", cfg.name)
		for _, spec := range ds.Queries[:3] {
			q, err := sparql.Parse(spec.SPARQL)
			check(err)
			var total time.Duration
			for i := 0; i <= runs; i++ {
				start := time.Now()
				_, err := eng.Execute(q)
				check(err)
				if i > 0 {
					total += time.Since(start)
				}
			}
			fmt.Printf(" %12s", (total / time.Duration(runs)).Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println()
}

func step(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lbrbench: "+format+"\n", args...)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbrbench:", err)
		os.Exit(1)
	}
}
