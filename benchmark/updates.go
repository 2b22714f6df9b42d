package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	lbr "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// The write stream of http-mixed-rw: 80 % INSERT DATA of a batch of new
// LUBM-vocabulary triples, 10 % DELETE DATA of an earlier batch, 10 %
// DELETE/INSERT … WHERE rewriting the telephone numbers of one drawn
// department's staff — in a fixed order, eight inserts then one of each,
// because a delete costs several times an insert and a window holds only
// a few hundred updates; the seed draws the constants. The stream keeps a
// shadow of what every acknowledged update did, so the final store — and
// a second store rebuilt from the write-ahead log — can be checked
// against it.

const (
	updateRound   = 10 // eight inserts, one delete, one modify
	batchStudents = 4  // five triples each: type, memberOf, name, emailAddress, advisor
)

// tripleSetSum summarises a set of triples as its size plus the sum of
// the FNV-64 hashes of its N-Triples lines; adding and removing triples
// are then additions and subtractions.
type tripleSetSum struct {
	N   int
	Sum uint64
}

func lineHash(line []byte) uint64 {
	h := fnv.New64a()
	h.Write(line)
	return h.Sum64()
}

func ntLine(t rdf.Triple) []byte { return []byte(t.String() + " .") }

func (s *tripleSetSum) add(t rdf.Triple)    { s.N++; s.Sum += lineHash(ntLine(t)) }
func (s *tripleSetSum) remove(t rdf.Triple) { s.N--; s.Sum -= lineHash(ntLine(t)) }

// sumOfNTriples summarises an N-Triples document as written by
// rdf.WriteNTriples (one statement per line).
func sumOfNTriples(doc []byte) (tripleSetSum, error) {
	var s tripleSetSum
	sc := bufio.NewScanner(bytes.NewReader(doc))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		s.N++
		s.Sum += lineHash(sc.Bytes())
	}
	return s, sc.Err()
}

// sumOfStore summarises the store's current graph.
func sumOfStore(st *lbr.Store) (tripleSetSum, error) {
	var buf bytes.Buffer
	if err := st.WriteNTriples(&buf); err != nil {
		return tripleSetSum{}, err
	}
	return sumOfNTriples(buf.Bytes())
}

type phone struct {
	prof, number string
}

// update is one request of the stream with its predicted effect.
type update struct {
	Text     string
	Inserted []rdf.Triple // effective inserts
	Deleted  []rdf.Triple // effective deletes
	apply    func()       // advances the stream's own state once acknowledged
}

type updateStream struct {
	rng     *rand.Rand
	depts   []string
	phones  map[string][]phone // department → staff telephone triples now in the store
	batches [][]rdf.Triple     // inserted and not yet deleted
	seq     int
	// Shadow is the expected graph: the dataset plus every acknowledged
	// update. Touched is the part of it the updates can reach — the
	// dataset's staff telephone triples plus everything inserted — which is
	// what a replay of the write-ahead log is checked against.
	Shadow  tripleSetSum
	Touched tripleSetSum
}

func newUpdateStream(ds *Dataset, seed int64) (*updateStream, error) {
	us := &updateStream{
		rng:    rand.New(rand.NewSource(subSeed(seed, "updates"))),
		depts:  ds.Departments,
		phones: map[string][]phone{},
	}
	for d, ps := range ds.Phones {
		us.phones[d] = ps
	}
	for _, t := range ds.phoneTriples() {
		us.Touched.add(t)
	}
	var err error
	if us.Shadow, err = sumOfNTriples(ds.NT); err != nil {
		return nil, err
	}
	return us, nil
}

func ub(local string) string { return datagen.UB + local }

func dataBlock(ts []rdf.Triple) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.String())
		sb.WriteString(" .\n")
	}
	return sb.String()
}

// next draws the next update. The caller sends it and, once it is
// acknowledged with the predicted counts, calls ack.
func (us *updateStream) next() *update {
	r := us.seq % updateRound
	us.seq++
	switch {
	case r == 8 && len(us.batches) > 0:
		i := us.rng.Intn(len(us.batches))
		batch := us.batches[i]
		return &update{
			Text:    "DELETE DATA {\n" + dataBlock(batch) + "}",
			Deleted: batch,
			apply: func() {
				us.batches[i] = us.batches[len(us.batches)-1]
				us.batches = us.batches[:len(us.batches)-1]
			},
		}
	case r == 9:
		dept := us.depts[us.rng.Intn(len(us.depts))]
		number := fmt.Sprintf("+1-999-%07d", us.seq)
		u := &update{Text: "PREFIX ub: <" + datagen.UB + ">\n" +
			"DELETE { ?x ub:telephone ?t } INSERT { ?x ub:telephone \"" + number + "\" }\n" +
			"WHERE { ?x ub:worksFor <" + dept + "> . ?x ub:telephone ?t }"}
		old := us.phones[dept]
		now := make([]phone, len(old))
		for i, p := range old {
			u.Deleted = append(u.Deleted, rdf.TL(p.prof, ub("telephone"), p.number))
			u.Inserted = append(u.Inserted, rdf.TL(p.prof, ub("telephone"), number))
			now[i] = phone{p.prof, number}
		}
		u.apply = func() { us.phones[dept] = now }
		return u
	}
	dept := us.depts[us.rng.Intn(len(us.depts))]
	var batch []rdf.Triple
	for k := 0; k < batchStudents; k++ {
		st := fmt.Sprintf("%s/BenchStudent%d-%d", dept, us.seq, k)
		batch = append(batch,
			rdf.T(st, datagen.RDFType, ub("GraduateStudent")),
			rdf.T(st, ub("memberOf"), dept),
			rdf.TL(st, ub("name"), fmt.Sprintf("BenchStudent%d-%d", us.seq, k)),
			rdf.TL(st, ub("emailAddress"), fmt.Sprintf("b%d.%d@bench.edu", us.seq, k)),
			rdf.T(st, ub("advisor"), dept+"/FullProfessor0"),
		)
	}
	return &update{
		Text:     "INSERT DATA {\n" + dataBlock(batch) + "}",
		Inserted: batch,
		apply:    func() { us.batches = append(us.batches, batch) },
	}
}

// ack records an acknowledged update in the shadow.
func (us *updateStream) ack(u *update) {
	for _, t := range u.Deleted {
		us.Shadow.remove(t)
		us.Touched.remove(t)
	}
	for _, t := range u.Inserted {
		us.Shadow.add(t)
		us.Touched.add(t)
	}
	u.apply()
}
