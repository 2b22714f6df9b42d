package lbr_test

// The root benchmarks regenerate every table of the paper's evaluation
// section (README.md, "The paper's evaluation", lists the experiments):
//
//	BenchmarkTable61_*        dataset characteristics (Table 6.1)
//	BenchmarkTable62_LUBM     per-query times, LBR vs baselines (Table 6.2)
//	BenchmarkTable63_UniProt  (Table 6.3)
//	BenchmarkTable64_DBPedia  (Table 6.4)
//	BenchmarkIndexSize        on-disk index size, hybrid vs pure RLE
//	BenchmarkAblation*        design-choice ablations
//
// Scales are laptop-sized; absolute numbers differ from the paper but the
// comparative shape (who wins where) is the reproduction target. Custom
// metrics: rows/op (result cardinality), initial_triples and
// pruned_triples (the two candidate-count columns of Tables 6.2-6.4).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	lbr "repro"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/bitmat"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sparql"
)

var (
	benchOnce sync.Once
	lubmDS    *bench.Dataset
	uniprotDS *bench.Dataset
	dbpediaDS *bench.Dataset
)

func benchDatasets(b *testing.B) (*bench.Dataset, *bench.Dataset, *bench.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if lubmDS, err = bench.BuildLUBM(16); err != nil {
			b.Fatal(err)
		}
		if uniprotDS, err = bench.BuildUniProt(15000); err != nil {
			b.Fatal(err)
		}
		if dbpediaDS, err = bench.BuildDBPedia(30000); err != nil {
			b.Fatal(err)
		}
	})
	return lubmDS, uniprotDS, dbpediaDS
}

func BenchmarkTable61_Stats(b *testing.B) {
	lubm, uniprot, dbpedia := benchDatasets(b)
	for _, ds := range []*bench.Dataset{lubm, uniprot, dbpedia} {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			var triples int
			for i := 0; i < b.N; i++ {
				st := ds.Graph.Stats()
				triples = st.Triples
			}
			st := ds.Graph.Stats()
			b.ReportMetric(float64(triples), "triples")
			b.ReportMetric(float64(st.Subjects), "subjects")
			b.ReportMetric(float64(st.Predicates), "predicates")
			b.ReportMetric(float64(st.Objects), "objects")
		})
	}
}

// benchQueryTable runs one dataset's query set as sub-benchmarks: LBR plus
// the two baseline policies per query, reporting the table's count columns.
func benchQueryTable(b *testing.B, ds *bench.Dataset) {
	for _, spec := range ds.Queries {
		spec := spec
		q, err := sparql.Parse(spec.SPARQL)
		if err != nil {
			b.Fatalf("%s: %v", spec.ID, err)
		}
		b.Run(spec.ID+"/LBR", func(b *testing.B) {
			eng := engine.New(ds.Index, engine.Options{})
			b.ReportAllocs()
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = eng.Execute(context.Background(), eng.Prepare(q), nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
			b.ReportMetric(float64(res.Stats.InitialTriples), "initial_triples")
			b.ReportMetric(float64(res.Stats.AfterPruning), "pruned_triples")
		})
		b.Run(spec.ID+"/Virtuoso-like", func(b *testing.B) {
			eng := baseline.New(ds.Index, baseline.SelectiveMaster)
			b.ReportAllocs()
			var res *baseline.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = eng.Execute(q)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
		})
		b.Run(spec.ID+"/MonetDB-like", func(b *testing.B) {
			eng := baseline.New(ds.Index, baseline.OriginalOrder)
			b.ReportAllocs()
			var res *baseline.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = eng.Execute(q)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
		})
	}
}

func BenchmarkTable62_LUBM(b *testing.B) {
	lubm, _, _ := benchDatasets(b)
	benchQueryTable(b, lubm)
}

func BenchmarkTable63_UniProt(b *testing.B) {
	_, uniprot, _ := benchDatasets(b)
	benchQueryTable(b, uniprot)
}

func BenchmarkTable64_DBPedia(b *testing.B) {
	_, _, dbpedia := benchDatasets(b)
	benchQueryTable(b, dbpedia)
}

func BenchmarkIndexSize(b *testing.B) {
	lubm, uniprot, dbpedia := benchDatasets(b)
	for _, ds := range []*bench.Dataset{lubm, uniprot, dbpedia} {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			var hybrid, rle int64
			for i := 0; i < b.N; i++ {
				rep := ds.Index.Sizes()
				hybrid, rle = rep.HybridBytes(), rep.RLEBytes()
			}
			b.ReportMetric(float64(hybrid), "hybrid_bytes")
			b.ReportMetric(float64(rle), "rle_bytes")
			b.ReportMetric(100*(1-float64(hybrid)/float64(rle)), "saving_%")
		})
	}
}

// benchAblation measures one engine configuration over the three
// low-selectivity LUBM queries (the regime the design choices target).
func benchAblation(b *testing.B, opts engine.Options) {
	lubm, _, _ := benchDatasets(b)
	for _, spec := range lubm.Queries[:3] {
		spec := spec
		q, err := sparql.Parse(spec.SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.ID, func(b *testing.B) {
			eng := engine.New(lubm.Index, opts)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), eng.Prepare(q), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPruning disables prune_triples entirely: the multi-way
// join runs on the raw BitMats and nullification/best-match become
// mandatory (the Section 3.3 discussion of why pruning is worth its cost).
func BenchmarkAblationPruning(b *testing.B) {
	benchAblation(b, engine.Options{DisablePruning: true})
}

// BenchmarkAblationActivePruning disables only the cross-pattern masking
// during init (the Section 5 "active pruning").
func BenchmarkAblationActivePruning(b *testing.B) {
	benchAblation(b, engine.Options{DisableActivePruning: true})
}

// BenchmarkAblationJvarOrder replaces the Algorithm 3.1 selectivity-driven
// jvar order with an arbitrary-rooted traversal.
func BenchmarkAblationJvarOrder(b *testing.B) {
	benchAblation(b, engine.Options{NaiveJvarOrder: true})
}

// BenchmarkAblationBaselineFull is the reference point for the ablations:
// the full paper configuration on the same queries.
func BenchmarkAblationBaselineFull(b *testing.B) {
	benchAblation(b, engine.Options{})
}

// BenchmarkAblationHybridVsRLE quantifies the hybrid codec's ~40% index
// size claim (Section 4) across the three datasets; see BenchmarkIndexSize
// for the byte counts. Here we measure the codec's encode cost.
func BenchmarkAblationHybridVsRLE(b *testing.B) {
	lubm, _, _ := benchDatasets(b)
	rep := lubm.Index.Sizes()
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lubm.Index.Sizes()
		}
		b.ReportMetric(rep.Savings()*100, "saving_%")
	})
}

// BenchmarkCrossover sweeps the intro query's background selectivity (the
// Sections 1/6 claim as a figure: LBR's cost tracks the master's
// selectivity while pairwise engines track the data size). One
// sub-benchmark per (size, engine).
func BenchmarkCrossover(b *testing.B) {
	spec := bench.MovieQuery()
	q, err := sparql.Parse(spec.SPARQL)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 20000, 80000} {
		g := datagen.MovieGraph(n)
		idx, err := bitmat.Build(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("actors=%d/LBR", n), func(b *testing.B) {
			eng := engine.New(idx, engine.Options{})
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), eng.Prepare(q), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("actors=%d/Virtuoso-like", n), func(b *testing.B) {
			eng := baseline.New(idx, baseline.SelectiveMaster)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("actors=%d/MonetDB-like", n), func(b *testing.B) {
			eng := baseline.New(idx, baseline.OriginalOrder)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure32Example times the running example end to end, the
// worked example every section of the paper builds on.
func BenchmarkFigure32Example(b *testing.B) {
	store := lbr.NewStore()
	for _, tr := range [][3]string{
		{"Julia", "actedIn", "Seinfeld"},
		{"Julia", "actedIn", "Veep"},
		{"Julia", "actedIn", "NewAdvOldChristine"},
		{"Julia", "actedIn", "CurbYourEnthu"},
		{"Larry", "actedIn", "CurbYourEnthu"},
		{"Jerry", "hasFriend", "Julia"},
		{"Jerry", "hasFriend", "Larry"},
		{"Seinfeld", "location", "NewYorkCity"},
		{"Veep", "location", "D.C."},
		{"CurbYourEnthu", "location", "LosAngeles"},
		{"NewAdvOldChristine", "location", "Jersey"},
	} {
		store.Add(lbr.TripleIRI(tr[0], tr[1], tr[2]))
	}
	if err := store.Build(); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT * WHERE {
		<Jerry> <hasFriend> ?friend .
		OPTIONAL { ?friend <actedIn> ?sitcom . ?sitcom <location> <NewYorkCity> . } }`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := store.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 2 {
			b.Fatalf("rows = %d", res.Len())
		}
	}
}
