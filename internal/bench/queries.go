// Package bench is the experiment harness that regenerates the paper's
// evaluation tables (6.1-6.4 plus the index-size comparison of Section
// 6.2) and the selectivity crossover of Sections 1 and 6. Each query set below is the Appendix E workload translated to the
// vocabulary of the corresponding synthetic generator; adaptations are
// noted per query.
package bench

import (
	"fmt"

	"repro/internal/datagen"
)

// QuerySpec is one benchmark query.
type QuerySpec struct {
	ID     string
	SPARQL string
	// Note documents any adaptation relative to Appendix E.
	Note string
}

const lubmPrefixes = `
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

// LUBMQueries is Appendix E.1. Q4/Q5 fix department constants that exist
// at every generator scale >= 1.
func LUBMQueries() []QuerySpec {
	dept9 := datagen.LUBMDepartment(3, 0)
	dept0 := datagen.LUBMDepartment(0, 0)
	return []QuerySpec{
		{ID: "Q1", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				{ ?st ub:teachingAssistantOf ?course .
				  OPTIONAL { ?st ub:takesCourse ?course2 . ?pub1 ub:publicationAuthor ?st . } }
				{ ?prof ub:teacherOf ?course . ?st ub:advisor ?prof .
				  OPTIONAL { ?prof ub:researchInterest ?resint . ?pub2 ub:publicationAuthor ?prof . } }
			}`},
		{ID: "Q2", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				{ ?pub rdf:type ub:Publication . ?pub ub:publicationAuthor ?st .
				  ?pub ub:publicationAuthor ?prof .
				  OPTIONAL { ?st ub:emailAddress ?ste . ?st ub:telephone ?sttel . } }
				{ ?st ub:undergraduateDegreeFrom ?univ . ?dept ub:subOrganizationOf ?univ .
				  OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } }
				{ ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept .
				  OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ1 . ?prof ub:researchInterest ?resint1 . } }
			}`},
		{ID: "Q3", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				{ ?pub ub:publicationAuthor ?st . ?pub ub:publicationAuthor ?prof .
				  ?st rdf:type ub:GraduateStudent .
				  OPTIONAL { ?st ub:undergraduateDegreeFrom ?univ1 . ?st ub:telephone ?sttel . } }
				{ ?st ub:advisor ?prof .
				  OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ . ?prof ub:researchInterest ?resint . } }
				{ ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . ?prof rdf:type ub:FullProfessor .
				  OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } }
			}`},
		{ID: "Q4", Note: "department constant adapted to generator scale", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				?x ub:worksFor <` + dept9 + `> .
				?x rdf:type ub:FullProfessor .
				OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }
			}`},
		{ID: "Q5", Note: "department constant adapted to generator scale", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				?x ub:worksFor <` + dept0 + `> .
				?x rdf:type ub:FullProfessor .
				OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }
			}`},
		{ID: "Q6", SPARQL: lubmPrefixes + `
			SELECT * WHERE {
				?x ub:worksFor <` + dept0 + `> .
				?x rdf:type ub:FullProfessor .
				OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . }
			}`},
	}
}

const uniprotPrefixes = `
PREFIX uni: <http://purl.uniprot.org/core/>
PREFIX schema: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

// UniProtQueries is Appendix E.2. Q2 fixes a non-existent organism so the
// empty-result early-detection shape of Table 6.3 reproduces on synthetic
// data.
func UniProtQueries() []QuerySpec {
	return []QuerySpec{
		{ID: "Q1", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				{ ?protein rdf:type uni:Protein . ?protein uni:recommendedName ?rn .
				  OPTIONAL { ?rn uni:fullName ?name . ?rn rdf:type ?rntype . } }
				{ ?protein uni:encodedBy ?gene .
				  OPTIONAL { ?gene uni:name ?gn . ?gene rdf:type ?gtype . } }
				{ ?protein uni:sequence ?seq . ?seq rdf:type ?stype . }
			}`},
		{ID: "Q2", Note: "organism constant added to reproduce the empty-result shape", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				{ ?a rdf:subject ?b . ?a uni:encodedBy ?vo .
				  OPTIONAL { ?a schema:seeAlso ?x . } }
				{ ?b rdf:type uni:Protein . ?b uni:organism <http://purl.uniprot.org/taxonomy/424242> .
				  ?b uni:sequence ?z .
				  OPTIONAL { ?b uni:replaces ?c . } }
				{ ?z rdf:type uni:Simple_Sequence .
				  OPTIONAL { ?z uni:version ?v . } }
			}`},
		{ID: "Q3", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				{ ?protein rdf:type uni:Protein .
				  ?protein uni:organism <` + datagen.HumanTaxon + `> .
				  OPTIONAL { ?protein uni:encodedBy ?gene . ?gene uni:name ?gname . } }
				{ ?protein uni:annotation ?an .
				  OPTIONAL { ?an rdf:type uni:Disease_Annotation . ?an schema:comment ?text . } }
			}`},
		{ID: "Q4", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				?s uni:encodedBy ?seq .
				OPTIONAL { ?seq uni:context ?m . ?m schema:label ?b . }
			}`},
		{ID: "Q5", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				{ ?a uni:replaces ?b .
				  OPTIONAL { ?a uni:encodedBy ?gene . ?gene uni:name ?name . ?gene rdf:type uni:Gene . } }
				{ ?b rdf:type uni:Protein . ?b uni:modified "2008-01-15" .
				  OPTIONAL { ?b uni:sequence ?seq . ?seq uni:memberOf ?m . } }
			}`},
		{ID: "Q6", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				{ ?protein rdf:type uni:Protein .
				  ?protein uni:organism <` + datagen.HumanTaxon + `> .
				  OPTIONAL { ?protein uni:annotation ?an .
				             ?an rdf:type uni:Natural_Variant_Annotation .
				             ?an schema:comment ?text . } }
				{ ?protein uni:sequence ?seq . ?seq rdf:value ?val . }
			}`},
		{ID: "Q7", SPARQL: uniprotPrefixes + `
			SELECT * WHERE {
				?protein rdf:type uni:Protein .
				?protein uni:annotation ?an .
				?an rdf:type uni:Transmembrane_Annotation .
				OPTIONAL { ?an uni:range ?range . ?range uni:begin ?begin . ?range uni:end ?end . }
			}`},
	}
}

const dbpediaPrefixes = `
PREFIX dbpowl: <http://dbpedia.org/ontology/>
PREFIX dbpprop: <http://dbpedia.org/property/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX georss: <http://www.georss.org/georss/>
`

// DBPediaQueries is Appendix E.3 (with unions/filters removed, as in the
// paper). Q2 and Q3 fix constants absent from the generated data so the
// empty-result early-detection shape of Table 6.4 reproduces.
func DBPediaQueries() []QuerySpec {
	return []QuerySpec{
		{ID: "Q1", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				{ ?v6 rdf:type dbpowl:PopulatedPlace .
				  ?v6 dbpowl:abstract ?v1 . ?v6 rdfs:label ?v2 .
				  ?v6 geo:lat ?v3 . ?v6 geo:long ?v4 .
				  OPTIONAL { ?v6 foaf:depiction ?v8 . } }
				OPTIONAL { ?v6 foaf:homepage ?v10 . }
				OPTIONAL { ?v6 dbpowl:populationTotal ?v12 . }
				OPTIONAL { ?v6 dbpowl:thumbnail ?v14 . }
			}`},
		{ID: "Q2", Note: "position constant chosen empty to reproduce the early-abort shape", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				?v3 foaf:page ?v0 .
				?v3 rdf:type dbpowl:SoccerPlayer .
				?v3 dbpprop:position "Libero" .
				?v3 dbpprop:clubs ?v8 .
				?v8 dbpowl:capacity ?v1 .
				?v3 dbpowl:birthPlace ?v5 .
				OPTIONAL { ?v3 dbpowl:number ?v9 . }
			}`},
		{ID: "Q3", Note: "homepage requirement moved into the BGP on an entity class without homepages", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				?v5 dbpowl:thumbnail ?v4 .
				?v5 rdf:type dbpowl:Airport .
				?v5 rdfs:label ?v .
				?v5 foaf:page ?v8 .
				OPTIONAL { ?v5 foaf:homepage ?v10 . }
			}`},
		{ID: "Q4", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				{ ?v2 rdf:type dbpowl:Settlement .
				  ?v2 rdfs:label ?v .
				  ?v6 rdf:type dbpowl:Airport .
				  ?v6 dbpowl:city ?v2 .
				  ?v6 dbpprop:iata ?v5 .
				  OPTIONAL { ?v6 foaf:homepage ?v7 . } }
				OPTIONAL { ?v6 dbpprop:nativename ?v8 . }
			}`},
		{ID: "Q5", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				?v4 skos:subject ?v .
				?v4 foaf:name ?v6 .
				OPTIONAL { ?v4 rdfs:comment ?v8 . }
			}`},
		{ID: "Q6", SPARQL: dbpediaPrefixes + `
			SELECT * WHERE {
				?v0 rdfs:comment ?v1 .
				?v0 foaf:page ?v .
				OPTIONAL { ?v0 skos:subject ?v6 . }
				OPTIONAL { ?v0 dbpprop:industry ?v5 . }
				OPTIONAL { ?v0 dbpprop:location ?v2 . }
				OPTIONAL { ?v0 dbpprop:locationCountry ?v3 . }
				OPTIONAL { ?v0 dbpprop:locationCity ?v9 . ?a dbpprop:manufacturer ?v0 . }
				OPTIONAL { ?v0 dbpprop:products ?v11 . ?b dbpprop:model ?v0 . }
				OPTIONAL { ?v0 georss:point ?v10 . }
				OPTIONAL { ?v0 rdf:type ?v7 . }
			}`},
	}
}

// MovieQuery is Q2 of the introduction over the running-example graph.
func MovieQuery() QuerySpec {
	ex := "http://example.org/"
	return QuerySpec{ID: "intro-Q2", SPARQL: fmt.Sprintf(`
		SELECT * WHERE {
			<%sJerry> <%shasFriend> ?friend .
			OPTIONAL {
				?friend <%sactedIn> ?sitcom .
				?sitcom <%slocation> <%sNewYorkCity> . } }`,
		ex, ex, ex, ex, ex)}
}
