// Pipeline: the production workflow around the engine — build a store,
// persist the index snapshot, reopen it in a fresh store (as a second
// process would), and stream a query with early termination and a
// deadline. The data is the DBPedia-like generator's entity mix.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"repro"
	"repro/internal/datagen"
)

func main() {
	// 1. Build a store from generated data.
	graph := datagen.GenerateDBPedia(datagen.DefaultDBPediaConfig(5000))
	store := lbr.NewStore()
	store.LoadGraph(graph)
	if err := store.Build(); err != nil {
		log.Fatal(err)
	}
	sizes, err := store.IndexSizes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index over %d triples: %d BitMats, %d bytes hybrid (%.0f%% smaller than RLE)\n",
		store.Len(), sizes.BitMats, sizes.HybridBytes(), sizes.Savings()*100)

	// 2. Persist the snapshot (dictionary + pair tables).
	var snapshot bytes.Buffer
	start := time.Now()
	if err := store.SaveIndex(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes in %s\n", snapshot.Len(), time.Since(start).Round(time.Millisecond))

	// 3. Reopen it as a second process would.
	start = time.Now()
	reopened, err := lbr.OpenIndex(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened %d triples in %s\n\n", reopened.Len(), time.Since(start).Round(time.Millisecond))

	// 4. Stream a query with early termination: the first 5 settlements
	// with their optional homepages.
	query := `
		PREFIX dbpowl: <http://dbpedia.org/ontology/>
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT * WHERE {
			?place rdf:type dbpowl:Settlement .
			?place rdfs:label ?name .
			OPTIONAL { ?place foaf:homepage ?home . }
		}`
	fmt.Println("first 5 settlements (streamed, early stop):")
	n := 0
	var name, home int
	err = reopened.QueryStreamRowsObserved(context.Background(), query, nil, nil, func(vars []string, row []lbr.Term) bool {
		if row == nil { // the header call: locate the columns once
			name, home = slices.Index(vars, "name"), slices.Index(vars, "home")
			return true
		}
		page := "no homepage listed"
		if !row[home].IsZero() { // a zero Term is an unbound OPTIONAL variable
			page = row[home].Value
		}
		fmt.Printf("  %-12s %s\n", row[name].Value, page)
		n++
		return n < 5
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The same query under a deadline via QueryContext.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := reopened.QueryContext(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull result set: %d rows (%d without homepage), Ttotal=%s\n",
		res.Len(), res.Stats.NullResults, res.Stats.Total.Round(time.Microsecond))
}
