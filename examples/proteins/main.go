// Proteins: a UniProt-like annotation-completeness report. RDF data
// compiled from many sources is rarely complete (the paper's motivation
// for OPTIONAL patterns): here we list human proteins with their gene
// names, sequence versions and disease annotations where available, then
// summarize how sparse each optional attribute actually is.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/datagen"
)

func main() {
	graph := datagen.GenerateUniProt(datagen.DefaultUniProtConfig(3000))
	store := lbr.NewStore()
	store.LoadGraph(graph)
	if err := store.Build(); err != nil {
		log.Fatal(err)
	}
	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UniProt-like graph: %d triples, %d predicates\n\n", st.Triples, st.Predicates)

	res, err := store.Query(`
		PREFIX uni: <http://purl.uniprot.org/core/>
		PREFIX schema: <http://www.w3.org/2000/01/rdf-schema#>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT * WHERE {
			?protein rdf:type uni:Protein .
			?protein uni:organism <` + datagen.HumanTaxon + `> .
			?protein uni:sequence ?seq .
			OPTIONAL { ?protein uni:encodedBy ?gene . ?gene uni:name ?gname . }
			OPTIONAL { ?seq uni:version ?ver . }
			OPTIONAL { ?protein uni:annotation ?an .
			           ?an rdf:type uni:Disease_Annotation .
			           ?an schema:comment ?disease . }
		}`)
	if err != nil {
		log.Fatal(err)
	}

	var withGene, withVersion, withDisease int
	res.Iterate(func(row map[string]lbr.Term) bool {
		if _, ok := row["gname"]; ok {
			withGene++
		}
		if _, ok := row["ver"]; ok {
			withVersion++
		}
		if _, ok := row["disease"]; ok {
			withDisease++
		}
		return true
	})

	fmt.Printf("human proteins matched: %d result rows\n", res.Len())
	pct := func(n int) float64 { return 100 * float64(n) / float64(res.Len()) }
	fmt.Printf("  with gene name:          %6d (%5.1f%%)\n", withGene, pct(withGene))
	fmt.Printf("  with sequence version:   %6d (%5.1f%%)\n", withVersion, pct(withVersion))
	fmt.Printf("  with disease annotation: %6d (%5.1f%%)\n", withDisease, pct(withDisease))
	fmt.Printf("\nengine: pruned %d candidate triples down to %d; Tprune=%s of Ttotal=%s\n",
		res.Stats.InitialTriples, res.Stats.AfterPruning, res.Stats.Prune, res.Stats.Total)
}
