package main

import (
	"math"
	"math/rand"
	"sort"
)

// readOp is one read of a schedule.
type readOp struct {
	q      *Query
	class  int // index into schedule.classes
	format format
	gzip   bool
}

// schedule is the fixed cycle of reads a workload's read clients walk,
// sharing one cursor. The mix of classes over one cycle does not depend
// on the seed — only the constants, the order and the formats do — so the
// cost of a window's operations varies little from seed to seed. A client
// stops only where the cursor is a multiple of round, so the library
// workloads always measure whole rounds.
type schedule struct {
	ops     []readOp
	round   int
	classes []string
	queries []*Query // the distinct queries, for the gate
	// classHeads is one query per class, for the full-document HTTP gate.
	classHeads []*Query
}

func (s *schedule) classIndex(name string) int {
	for i, c := range s.classes {
		if c == name {
			return i
		}
	}
	s.classes = append(s.classes, name)
	return len(s.classes) - 1
}

func (s *schedule) addQuery(q *Query) int {
	before := len(s.classes)
	ci := s.classIndex(q.Class)
	if len(s.classes) > before {
		s.classHeads = append(s.classHeads, q)
	}
	s.queries = append(s.queries, q)
	return ci
}

// analyticSchedule is the round-robin over the twelve analytic templates.
func analyticSchedule() *schedule {
	s := &schedule{round: 12}
	for _, q := range analyticQueries() {
		s.ops = append(s.ops, readOp{q: q, class: s.addQuery(q)})
	}
	return s
}

// selectiveSchedule walks the seven selective classes in turn — the three
// parameterised families, each stepping through its seed-drawn constants,
// and the four fixed templates — so every round holds one of each.
func selectiveSchedule(ds *Dataset, seed int64) *schedule {
	s := &schedule{round: 7}
	pool := selectiveQueries(ds, seed)
	byClass := map[string][]*Query{}
	for _, q := range pool {
		s.addQuery(q)
		byClass[q.Class] = append(byClass[q.Class], q)
	}
	fixed := fixedSelectiveQueries()
	for _, q := range fixed {
		s.addQuery(q)
	}
	rounds := 0
	for _, qs := range byClass {
		if len(qs) > rounds {
			rounds = len(qs)
		}
	}
	for r := 0; r < rounds; r++ {
		for _, fam := range []string{famDeptFaculty, famDeptContact, famEntityCard} {
			qs := byClass[fam]
			q := qs[r%len(qs)]
			s.ops = append(s.ops, readOp{q: q, class: s.classIndex(fam)})
		}
		for _, q := range fixed {
			s.ops = append(s.ops, readOp{q: q, class: s.classIndex(q.Class)})
		}
	}
	return s
}

const (
	zipfS        = 1.1
	dashCycleLen = 8192
	// analyticRankStep places the analytic templates at popularity ranks
	// 8, 16, …, 96 of the 256-query pool, in template order; the selective
	// queries fill the other ranks in pool order, families alternating.
	analyticRankStep = 8
)

// dashboardSchedule is the HTTP read mix: Zipf(1.1) popularity over the
// pool of analytic and parameterised selective queries, 70 % JSON and
// 30 % TSV, gzip asked for on half. A cycle holds each query in exact
// proportion to its popularity (at least once), its occurrences evenly
// spaced from a seed-drawn phase. A read that misses the result cache
// costs hundreds of times one that hits, so a shuffled cycle — let alone
// independent draws — would leave the number of dear reads in a window to
// chance; spaced evenly, any stretch of the cycle holds every query in
// proportion, to within one occurrence.
//
// Under writes the analytic templates are left out and their ranks go to
// selective queries: the write path leaves the reader a few dozen reads a
// second, too few draws from a 6 % tail of reads a hundred times dearer
// than the rest for any figure of the window to repeat.
func dashboardSchedule(ds *Dataset, seed int64, withAnalytic bool) *schedule {
	s := &schedule{round: 1}
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule.dashboard")))
	var analytic []*Query
	if withAnalytic {
		analytic = analyticQueries()
	}
	selective := selectiveQueries(ds, seed)

	n := len(analytic) + len(selective)
	ranked := make([]*Query, 0, n)
	for rank := 1; len(ranked) < n; rank++ {
		k := rank / analyticRankStep
		if rank%analyticRankStep == 0 && k <= len(analytic) {
			ranked = append(ranked, analytic[k-1])
		} else if len(selective) > 0 {
			ranked = append(ranked, selective[0])
			selective = selective[1:]
		}
	}
	var norm float64
	for r := 1; r <= n; r++ {
		norm += math.Pow(float64(r), -zipfS)
	}
	type placed struct {
		at float64
		op readOp
	}
	var cycle []placed
	for r, q := range ranked {
		ci := s.addQuery(q)
		count := int(math.Round(dashCycleLen * math.Pow(float64(r+1), -zipfS) / norm))
		if count < 1 {
			count = 1
		}
		stride := dashCycleLen / float64(count)
		phase := rng.Float64() * stride
		for j := 0; j < count; j++ {
			op := readOp{q: q, class: ci, format: formatJSON, gzip: (j+r)%2 == 0}
			if (j*3+r)%10 < 3 {
				op.format = formatTSV
			}
			cycle = append(cycle, placed{phase + float64(j)*stride, op})
		}
	}
	sort.SliceStable(cycle, func(i, j int) bool { return cycle[i].at < cycle[j].at })
	for _, p := range cycle {
		s.ops = append(s.ops, p.op)
	}
	return s
}

func scheduleFor(spec workloadSpec, ds *Dataset, seed int64) *schedule {
	switch {
	case spec.HTTP:
		return dashboardSchedule(ds, seed, !spec.Writes)
	case spec.Name == "analytic-scan":
		return analyticSchedule()
	default:
		return selectiveSchedule(ds, seed)
	}
}
