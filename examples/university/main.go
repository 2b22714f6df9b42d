// University: the LUBM-like workload of Table 6.2. Builds a university
// graph, runs a nested multi-OPTIONAL query (the low-selectivity regime
// where LBR beats pairwise left-outer-join plans), and a highly selective
// department query (where the Virtuoso-like baseline is at par), printing
// the timing split for each.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/datagen"
)

func main() {
	cfg := datagen.DefaultLUBMConfig(2)
	graph := datagen.GenerateLUBM(cfg)
	store := lbr.NewStore()
	store.LoadGraph(graph)
	if err := store.Build(); err != nil {
		log.Fatal(err)
	}
	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LUBM-like graph: %d triples, %d predicates\n\n", st.Triples, st.Predicates)

	const prefixes = `
		PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>`

	lowSelectivity := prefixes + `
		SELECT * WHERE {
			{ ?st ub:teachingAssistantOf ?course .
			  OPTIONAL { ?st ub:takesCourse ?course2 . ?pub1 ub:publicationAuthor ?st . } }
			{ ?prof ub:teacherOf ?course . ?st ub:advisor ?prof .
			  OPTIONAL { ?prof ub:researchInterest ?resint . ?pub2 ub:publicationAuthor ?prof . } }
		}`

	highSelectivity := prefixes + `
		SELECT * WHERE {
			?x ub:worksFor <` + datagen.LUBMDepartment(0, 0) + `> .
			?x rdf:type ub:FullProfessor .
			OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . }
		}`

	run := func(label, query string) {
		res, err := store.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n  LBR: %d rows (%d with NULLs), Tinit=%s Tprune=%s Ttotal=%s\n",
			label, res.Len(), res.Stats.NullResults,
			res.Stats.Init.Round(time.Microsecond),
			res.Stats.Prune.Round(time.Microsecond),
			res.Stats.Total.Round(time.Microsecond))
		fmt.Printf("  pruning: %d -> %d candidate triples, best-match=%v\n",
			res.Stats.InitialTriples, res.Stats.AfterPruning, res.Stats.BestMatch)
		for _, pol := range []struct {
			name string
			p    lbr.BaselinePolicy
		}{{"Virtuoso-like", lbr.VirtuosoLike}, {"MonetDB-like", lbr.MonetDBLike}} {
			start := time.Now()
			bres, err := store.QueryBaseline(query, pol.p)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(start)
			agree := "agree"
			if bres.Len() != res.Len() {
				agree = fmt.Sprintf("DISAGREE (%d rows)", bres.Len())
			}
			fmt.Printf("  %s: %s (%s)\n", pol.name, elapsed.Round(time.Microsecond), agree)
		}
		fmt.Println()
	}

	run("TA/advisor query with two nested OPTIONALs (LUBM Q1 shape)", lowSelectivity)
	run("department professors with optional contact info (LUBM Q6 shape)", highSelectivity)
}
