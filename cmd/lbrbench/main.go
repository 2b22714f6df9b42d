// Command lbrbench regenerates the paper's evaluation tables on the
// synthetic datasets (see README.md, "The paper's evaluation", for the
// substitution rationale). With -verify (the default) it exits non-zero,
// naming the dataset and query, when LBR and a baseline disagree.
//
// Usage:
//
//	lbrbench -table all
//	lbrbench -table 6.2 -lubm-univ 8
//	lbrbench -table index-sizes
//	lbrbench -table ablations
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// tables are the -table values: the paper's experiments, or all of them.
var tables = []string{"6.1", "6.2", "6.3", "6.4", "index-sizes", "ablations", "crossover", "all"}

func main() {
	var (
		table    = flag.String("table", "all", "which experiment: "+strings.Join(tables, "|"))
		lubmU    = flag.Int("lubm-univ", 16, "LUBM scale: universities")
		uniprotP = flag.Int("uniprot-proteins", 20000, "UniProt scale: proteins")
		dbpediaE = flag.Int("dbpedia-entities", 40000, "DBPedia scale: entities")
		runs     = flag.Int("runs", 3, "timed repetitions per query (after one warm-up)")
		verify   = flag.Bool("verify", true, "cross-check engines' results; exit non-zero on a disagreement")
	)
	flag.Parse()
	if !slices.Contains(tables, *table) {
		check(fmt.Errorf("unknown -table %q; want one of %s", *table, strings.Join(tables, "|")))
	}
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
		if lubm == nil && want("6.1", "6.2", "index-sizes", "ablations") {
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
	var disagree []string
	runTable := func(ds *bench.Dataset, title string) {
		step("running %s", title)
		ms, err := bench.RunTable(ds, opts)
		check(err)
		bench.FprintTable(os.Stdout, title, ms)
		for _, m := range ms {
			if !m.Consistent {
				disagree = append(disagree, ds.Name+"/"+m.Query)
			}
		}
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

	if want("crossover") {
		step("running selectivity crossover sweep")
		pts, err := bench.RunCrossover([]int{0, 1000, 5000, 20000, 80000}, *runs)
		check(err)
		bench.FprintCrossover(os.Stdout, pts)
		fmt.Println()
	}

	if len(disagree) > 0 {
		check(fmt.Errorf("LBR and a baseline disagree on %s", strings.Join(disagree, ", ")))
	}
}

// runAblations measures the design-choice ablations (README.md, "The
// paper's evaluation") on the LUBM workload.
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
				_, err := eng.Execute(context.Background(), eng.Prepare(q), nil)
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
