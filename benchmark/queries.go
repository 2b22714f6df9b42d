package main

import (
	"math/rand"
)

// The query templates below are copies of the Appendix E workload the
// repo's paper-table harness uses. They are copied, not imported, so a
// later change cannot move a workload by editing program-side files.

// Query is one distinct query string of a workload, with the class its
// latency is reported under and what the correctness gate learned about
// its answer.
type Query struct {
	Class string // analytic: the template id; selective: the family
	Text  string
	// Filled by the gate, before timing.
	Vars []string
	Rows int
	Sum  uint64 // order-independent hash of the canonical rows
}

const lubmPrefixes = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

const uniprotPrefixes = `PREFIX uni: <http://purl.uniprot.org/core/>
PREFIX schema: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

const dbpediaPrefixes = `PREFIX dbpowl: <http://dbpedia.org/ontology/>
PREFIX dbpprop: <http://dbpedia.org/property/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX georss: <http://www.georss.org/georss/>
`

const humanTaxon = "http://purl.uniprot.org/taxonomy/9606"

// analyticQueries are the twelve low-selectivity OPTIONAL templates: the
// paper's headline case, where init/prune/join over large BitMats is
// nearly all of the work.
func analyticQueries() []*Query {
	return []*Query{
		{Class: "lubm.Q1", Text: lubmPrefixes + `SELECT * WHERE {
	{ ?st ub:teachingAssistantOf ?course .
	  OPTIONAL { ?st ub:takesCourse ?course2 . ?pub1 ub:publicationAuthor ?st . } }
	{ ?prof ub:teacherOf ?course . ?st ub:advisor ?prof .
	  OPTIONAL { ?prof ub:researchInterest ?resint . ?pub2 ub:publicationAuthor ?prof . } }
}`},
		{Class: "lubm.Q2", Text: lubmPrefixes + `SELECT * WHERE {
	{ ?pub rdf:type ub:Publication . ?pub ub:publicationAuthor ?st .
	  ?pub ub:publicationAuthor ?prof .
	  OPTIONAL { ?st ub:emailAddress ?ste . ?st ub:telephone ?sttel . } }
	{ ?st ub:undergraduateDegreeFrom ?univ . ?dept ub:subOrganizationOf ?univ .
	  OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } }
	{ ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept .
	  OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ1 . ?prof ub:researchInterest ?resint1 . } }
}`},
		{Class: "lubm.Q3", Text: lubmPrefixes + `SELECT * WHERE {
	{ ?pub ub:publicationAuthor ?st . ?pub ub:publicationAuthor ?prof .
	  ?st rdf:type ub:GraduateStudent .
	  OPTIONAL { ?st ub:undergraduateDegreeFrom ?univ1 . ?st ub:telephone ?sttel . } }
	{ ?st ub:advisor ?prof .
	  OPTIONAL { ?prof ub:doctoralDegreeFrom ?univ . ?prof ub:researchInterest ?resint . } }
	{ ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . ?prof rdf:type ub:FullProfessor .
	  OPTIONAL { ?head ub:headOf ?dept . ?others ub:worksFor ?dept . } }
}`},
		{Class: "uniprot.Q1", Text: uniprotPrefixes + `SELECT * WHERE {
	{ ?protein rdf:type uni:Protein . ?protein uni:recommendedName ?rn .
	  OPTIONAL { ?rn uni:fullName ?name . ?rn rdf:type ?rntype . } }
	{ ?protein uni:encodedBy ?gene .
	  OPTIONAL { ?gene uni:name ?gn . ?gene rdf:type ?gtype . } }
	{ ?protein uni:sequence ?seq . ?seq rdf:type ?stype . }
}`},
		{Class: "uniprot.Q3", Text: uniprotPrefixes + `SELECT * WHERE {
	{ ?protein rdf:type uni:Protein .
	  ?protein uni:organism <` + humanTaxon + `> .
	  OPTIONAL { ?protein uni:encodedBy ?gene . ?gene uni:name ?gname . } }
	{ ?protein uni:annotation ?an .
	  OPTIONAL { ?an rdf:type uni:Disease_Annotation . ?an schema:comment ?text . } }
}`},
		{Class: "uniprot.Q4", Text: uniprotPrefixes + `SELECT * WHERE {
	?s uni:encodedBy ?seq .
	OPTIONAL { ?seq uni:context ?m . ?m schema:label ?b . }
}`},
		{Class: "uniprot.Q6", Text: uniprotPrefixes + `SELECT * WHERE {
	{ ?protein rdf:type uni:Protein .
	  ?protein uni:organism <` + humanTaxon + `> .
	  OPTIONAL { ?protein uni:annotation ?an .
	             ?an rdf:type uni:Natural_Variant_Annotation .
	             ?an schema:comment ?text . } }
	{ ?protein uni:sequence ?seq . ?seq rdf:value ?val . }
}`},
		{Class: "uniprot.Q7", Text: uniprotPrefixes + `SELECT * WHERE {
	?protein rdf:type uni:Protein .
	?protein uni:annotation ?an .
	?an rdf:type uni:Transmembrane_Annotation .
	OPTIONAL { ?an uni:range ?range . ?range uni:begin ?begin . ?range uni:end ?end . }
}`},
		{Class: "dbpedia.Q1", Text: dbpediaPrefixes + `SELECT * WHERE {
	{ ?v6 rdf:type dbpowl:PopulatedPlace .
	  ?v6 dbpowl:abstract ?v1 . ?v6 rdfs:label ?v2 .
	  ?v6 geo:lat ?v3 . ?v6 geo:long ?v4 .
	  OPTIONAL { ?v6 foaf:depiction ?v8 . } }
	OPTIONAL { ?v6 foaf:homepage ?v10 . }
	OPTIONAL { ?v6 dbpowl:populationTotal ?v12 . }
	OPTIONAL { ?v6 dbpowl:thumbnail ?v14 . }
}`},
		{Class: "dbpedia.Q4", Text: dbpediaPrefixes + `SELECT * WHERE {
	{ ?v2 rdf:type dbpowl:Settlement .
	  ?v2 rdfs:label ?v .
	  ?v6 rdf:type dbpowl:Airport .
	  ?v6 dbpowl:city ?v2 .
	  ?v6 dbpprop:iata ?v5 .
	  OPTIONAL { ?v6 foaf:homepage ?v7 . } }
	OPTIONAL { ?v6 dbpprop:nativename ?v8 . }
}`},
		{Class: "dbpedia.Q5", Text: dbpediaPrefixes + `SELECT * WHERE {
	?v4 skos:subject ?v .
	?v4 foaf:name ?v6 .
	OPTIONAL { ?v4 rdfs:comment ?v8 . }
}`},
		{Class: "dbpedia.Q6", Text: dbpediaPrefixes + `SELECT * WHERE {
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

// Selective family names. Each is one high-selectivity shape; the first
// three are parameterised over a constant drawn from the dataset.
const (
	famDeptFaculty = "lubm.dept-faculty"
	famDeptContact = "lubm.dept-contact"
	famEntityCard  = "dbpedia.entity-card"
)

// deptFaculty is LUBM Q4/Q5: the OPTIONAL block is a cyclic join, so the
// engine has to run best-match.
func deptFaculty(dept string) *Query {
	return &Query{Class: famDeptFaculty, Text: lubmPrefixes + `SELECT * WHERE {
	?x ub:worksFor <` + dept + `> .
	?x rdf:type ub:FullProfessor .
	OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }
}`}
}

// deptContact is LUBM Q6.
func deptContact(dept string) *Query {
	return &Query{Class: famDeptContact, Text: lubmPrefixes + `SELECT * WHERE {
	?x ub:worksFor <` + dept + `> .
	?x rdf:type ub:FullProfessor .
	OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . }
}`}
}

// entityCard is DBPedia Q1's OPTIONAL star with ?v6 bound to one place:
// every pattern has a constant subject, so each load is a single row.
func entityCard(place string) *Query {
	p := "<" + place + ">"
	return &Query{Class: famEntityCard, Text: dbpediaPrefixes + `SELECT * WHERE {
	{ ` + p + ` dbpowl:abstract ?v1 . ` + p + ` rdfs:label ?v2 .
	  ` + p + ` geo:lat ?v3 . ` + p + ` geo:long ?v4 .
	  OPTIONAL { ` + p + ` foaf:depiction ?v8 . } }
	OPTIONAL { ` + p + ` foaf:homepage ?v10 . }
	OPTIONAL { ` + p + ` dbpowl:populationTotal ?v12 . }
	OPTIONAL { ` + p + ` dbpowl:thumbnail ?v14 . }
}`}
}

// fixedSelectiveQueries are the high-selectivity templates without a
// parameter; three of the four have an empty answer, which the engine
// detects early and aborts on.
func fixedSelectiveQueries() []*Query {
	return []*Query{
		{Class: "uniprot.Q2", Text: uniprotPrefixes + `SELECT * WHERE {
	{ ?a rdf:subject ?b . ?a uni:encodedBy ?vo .
	  OPTIONAL { ?a schema:seeAlso ?x . } }
	{ ?b rdf:type uni:Protein . ?b uni:organism <http://purl.uniprot.org/taxonomy/424242> .
	  ?b uni:sequence ?z .
	  OPTIONAL { ?b uni:replaces ?c . } }
	{ ?z rdf:type uni:Simple_Sequence .
	  OPTIONAL { ?z uni:version ?v . } }
}`},
		{Class: "uniprot.Q5", Text: uniprotPrefixes + `SELECT * WHERE {
	{ ?a uni:replaces ?b .
	  OPTIONAL { ?a uni:encodedBy ?gene . ?gene uni:name ?name . ?gene rdf:type uni:Gene . } }
	{ ?b rdf:type uni:Protein . ?b uni:modified "2008-01-15" .
	  OPTIONAL { ?b uni:sequence ?seq . ?seq uni:memberOf ?m . } }
}`},
		{Class: "dbpedia.Q2", Text: dbpediaPrefixes + `SELECT * WHERE {
	?v3 foaf:page ?v0 .
	?v3 rdf:type dbpowl:SoccerPlayer .
	?v3 dbpprop:position "Libero" .
	?v3 dbpprop:clubs ?v8 .
	?v8 dbpowl:capacity ?v1 .
	?v3 dbpowl:birthPlace ?v5 .
	OPTIONAL { ?v3 dbpowl:number ?v9 . }
}`},
		{Class: "dbpedia.Q3", Text: dbpediaPrefixes + `SELECT * WHERE {
	?v5 dbpowl:thumbnail ?v4 .
	?v5 rdf:type dbpowl:Airport .
	?v5 rdfs:label ?v .
	?v5 foaf:page ?v8 .
	OPTIONAL { ?v5 foaf:homepage ?v10 . }
}`},
	}
}

// selectivePoolSize is how many parameterised selective queries a run
// draws: with the twelve analytic templates they make the 256-string
// pool of the HTTP workloads.
const selectivePoolSize = 244

// selectiveQueries draws the parameterised selective pool: both
// department families over seed-drawn departments (every department when
// there are few enough) and entity cards over seed-drawn places. The
// families alternate — faculty, contact, card, faculty, … — until the
// department families run out, so which family stands at which place of
// the pool, and later at which popularity rank, does not depend on the
// seed: only the constants do. A department query costs many times an
// entity card, so a seed-drawn order would make each seed its own workload.
func selectiveQueries(ds *Dataset, seed int64) []*Query {
	rng := rand.New(rand.NewSource(subSeed(seed, "queries.selective")))
	perDept := selectivePoolSize / 3
	if perDept > len(ds.Departments) {
		perDept = len(ds.Departments)
	}
	nCards := selectivePoolSize - 2*perDept
	if nCards > len(ds.Places) {
		nCards = len(ds.Places)
	}
	faculty := rng.Perm(len(ds.Departments))[:perDept]
	contact := rng.Perm(len(ds.Departments))[:perDept]
	cards := rng.Perm(len(ds.Places))[:nCards]
	var out []*Query
	for i := 0; i < nCards; i++ {
		if i < perDept {
			out = append(out, deptFaculty(ds.Departments[faculty[i]]), deptContact(ds.Departments[contact[i]]))
		}
		out = append(out, entityCard(ds.Places[cards[i]]))
	}
	return out
}
