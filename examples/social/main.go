// Social: the running example of Sections 1-3 (query Q2, Figure 3.2) at a
// larger scale. Jerry has two friends, but thousands of actors have acted
// in New York sitcoms, so the OPTIONAL's inner join is low selectivity:
// exactly the case where LBR's semi-join pruning shines. The example prints
// the pruning effect and compares against both baseline policies.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/datagen"
)

func main() {
	// The Figure 3.2 data plus 20k background actors/sitcoms.
	graph := datagen.MovieGraph(20000)
	store := lbr.NewStore()
	store.LoadGraph(graph)
	if err := store.Build(); err != nil {
		log.Fatal(err)
	}
	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d triples, %d subjects, %d predicates, %d objects\n",
		st.Triples, st.Subjects, st.Predicates, st.Objects)

	ex := "http://example.org/"
	query := fmt.Sprintf(`
		SELECT * WHERE {
			<%sJerry> <%shasFriend> ?friend .
			OPTIONAL {
				?friend <%sactedIn> ?sitcom .
				?sitcom <%slocation> <%sNewYorkCity> . } }`,
		ex, ex, ex, ex, ex)

	plan, err := store.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan:\n%s\n", plan)

	res, err := store.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("results (%d):\n%s\n", res.Len(), res)
	fmt.Printf("pruning: %d candidate triples -> %d after prune_triples (Tprune=%s)\n",
		res.Stats.InitialTriples, res.Stats.AfterPruning, res.Stats.Prune)
	fmt.Printf("LBR total: %s\n", res.Stats.Total)

	for _, pol := range []struct {
		name string
		p    lbr.BaselinePolicy
	}{{"MonetDB-like", lbr.MonetDBLike}, {"Virtuoso-like", lbr.VirtuosoLike}} {
		start := time.Now()
		bres, err := store.QueryBaseline(query, pol.p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s baseline: %d rows in %s\n", pol.name, bres.Len(), time.Since(start).Round(time.Microsecond))
	}
}
