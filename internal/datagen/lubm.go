// Package datagen provides deterministic, scale-parameterized generators
// for the three evaluation datasets of Section 6 (Table 6.1): a LUBM-like
// university network, a UniProt-like protein network, and a DBPedia-like
// heterogeneous graph with a long tail of rare predicates. The generators
// stand in for the original billion-triple datasets (see README.md, "The
// paper's evaluation"): they reproduce the predicates used by the
// Appendix E queries and the optional-attribute sparsity that drives
// OPTIONAL-pattern selectivity.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/rdf"
)

// LUBM vocabulary, mirroring the Lehigh University Benchmark ontology.
const (
	UB      = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// LUBMConfig sizes the university generator. The zero value is unusable;
// start from DefaultLUBMConfig.
type LUBMConfig struct {
	Universities    int
	DeptsPerUniv    int
	ProfsPerDept    int // full professors; associates and assistants scale off this
	StudentsPerDept int
	CoursesPerProf  int
	Seed            int64
}

// DefaultLUBMConfig yields roughly 25k triples per university.
func DefaultLUBMConfig(universities int) LUBMConfig {
	return LUBMConfig{
		Universities:    universities,
		DeptsPerUniv:    4,
		ProfsPerDept:    6,
		StudentsPerDept: 80,
		CoursesPerProf:  2,
		Seed:            1,
	}
}

// LUBMUniversity returns the IRI of university u.
func LUBMUniversity(u int) string { return fmt.Sprintf("http://www.University%d.edu", u) }

// LUBMDepartment returns the IRI of department d of university u, the kind
// of constant LUBM queries Q4-Q6 fix.
func LUBMDepartment(u, d int) string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu", d, u)
}

// GenerateLUBM builds the LUBM-like graph.
func GenerateLUBM(cfg LUBMConfig) *rdf.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := rdf.NewGraph()
	ub := func(local string) string { return UB + local }

	interests := []string{"Databases", "AI", "Networks", "Theory", "Graphics", "Systems", "HCI"}

	pubCount := 0
	for u := 0; u < cfg.Universities; u++ {
		univ := LUBMUniversity(u)
		g.Add(rdf.T(univ, RDFType, ub("University")))
		for d := 0; d < cfg.DeptsPerUniv; d++ {
			dept := LUBMDepartment(d, u)
			g.Add(rdf.T(dept, RDFType, ub("Department")))
			g.Add(rdf.T(dept, ub("subOrganizationOf"), univ))

			type prof struct {
				iri  string
				kind string
			}
			var profs []prof
			mkProf := func(kind string, i int) prof {
				iri := fmt.Sprintf("%s/%s%d", dept, kind, i)
				g.Add(rdf.T(iri, RDFType, ub(kind)))
				g.Add(rdf.T(iri, ub("worksFor"), dept))
				g.Add(rdf.TL(iri, ub("name"), fmt.Sprintf("%s%d-%d-%d", kind, u, d, i)))
				if rng.Float64() < 0.7 {
					g.Add(rdf.TL(iri, ub("emailAddress"), fmt.Sprintf("%s%d.%d.%d@u%d.edu", kind, u, d, i, u)))
				}
				if rng.Float64() < 0.5 {
					g.Add(rdf.TL(iri, ub("telephone"), fmt.Sprintf("+1-555-%04d", rng.Intn(10000))))
				}
				if rng.Float64() < 0.6 {
					g.Add(rdf.TL(iri, ub("researchInterest"), interests[rng.Intn(len(interests))]))
				}
				degreeU := LUBMUniversity(rng.Intn(cfg.Universities))
				g.Add(rdf.T(iri, ub("doctoralDegreeFrom"), degreeU))
				return prof{iri: iri, kind: kind}
			}
			for i := 0; i < cfg.ProfsPerDept; i++ {
				profs = append(profs, mkProf("FullProfessor", i))
			}
			for i := 0; i < cfg.ProfsPerDept; i++ {
				profs = append(profs, mkProf("AssociateProfessor", i))
			}
			for i := 0; i < cfg.ProfsPerDept/2+1; i++ {
				profs = append(profs, mkProf("AssistantProfessor", i))
			}
			// The first full professor heads the department.
			g.Add(rdf.T(profs[0].iri, ub("headOf"), dept))

			// Courses taught by professors.
			var courses []string
			for pi, p := range profs {
				for c := 0; c < cfg.CoursesPerProf; c++ {
					course := fmt.Sprintf("%s/Course%d-%d", dept, pi, c)
					courses = append(courses, course)
					g.Add(rdf.T(course, RDFType, ub("Course")))
					g.Add(rdf.T(p.iri, ub("teacherOf"), course))
				}
			}

			// Students: 25% graduate students with advisors; undergrads
			// take courses; some grads TA courses.
			for s := 0; s < cfg.StudentsPerDept; s++ {
				grad := s%4 == 0
				kind := "UndergraduateStudent"
				if grad {
					kind = "GraduateStudent"
				}
				st := fmt.Sprintf("%s/%s%d", dept, kind, s)
				g.Add(rdf.T(st, RDFType, ub(kind)))
				g.Add(rdf.T(st, ub("memberOf"), dept))
				g.Add(rdf.TL(st, ub("name"), fmt.Sprintf("Student%d-%d-%d", u, d, s)))
				if rng.Float64() < 0.5 {
					g.Add(rdf.TL(st, ub("emailAddress"), fmt.Sprintf("s%d.%d.%d@u%d.edu", u, d, s, u)))
				}
				if rng.Float64() < 0.3 {
					g.Add(rdf.TL(st, ub("telephone"), fmt.Sprintf("+1-444-%04d", rng.Intn(10000))))
				}
				nCourses := 1 + rng.Intn(3)
				for c := 0; c < nCourses; c++ {
					g.Add(rdf.T(st, ub("takesCourse"), courses[rng.Intn(len(courses))]))
				}
				if grad {
					adv := profs[rng.Intn(len(profs))]
					g.Add(rdf.T(st, ub("advisor"), adv.iri))
					g.Add(rdf.T(st, ub("undergraduateDegreeFrom"), LUBMUniversity(rng.Intn(cfg.Universities))))
					if rng.Float64() < 0.4 {
						g.Add(rdf.T(st, ub("teachingAssistantOf"), courses[rng.Intn(len(courses))]))
					}
					// Publications with the advisor.
					if rng.Float64() < 0.5 {
						pub := fmt.Sprintf("http://www.publications.org/Pub%d", pubCount)
						pubCount++
						g.Add(rdf.T(pub, RDFType, ub("Publication")))
						g.Add(rdf.T(pub, ub("publicationAuthor"), st))
						g.Add(rdf.T(pub, ub("publicationAuthor"), adv.iri))
					}
				}
			}
			// Professor-only publications.
			for _, p := range profs {
				if rng.Float64() < 0.6 {
					pub := fmt.Sprintf("http://www.publications.org/Pub%d", pubCount)
					pubCount++
					g.Add(rdf.T(pub, RDFType, ub("Publication")))
					g.Add(rdf.T(pub, ub("publicationAuthor"), p.iri))
				}
			}
		}
	}
	return g
}
