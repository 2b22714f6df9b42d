package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Scale sizes the three generators. The benchmark's one dataset per seed
// is their union; the vocabularies are disjoint, so every query template
// touches exactly one of them.
type Scale struct {
	Universities int
	Proteins     int
	Entities     int
}

// fullScale is the dataset of the three read-only workloads, about
// 481 000 triples: LUBM-like (20 universities) ∪ UniProt-like (13 000
// proteins) ∪ DBPedia-like (25 000 entities). It is about two thirds of
// what the issue sketched (32/20000/40000): set-up runs three times per
// invocation so that setup_s is a median, and the driver's budget has to
// hold 92 invocations. The three sizes are also chosen so that no analytic
// result document falls within a tenth of the server's 2 MiB per-document
// result-cache cap: a document that is cacheable under one seed and not
// under the next would make http-dashboard a different workload per seed.
var fullScale = Scale{Universities: 20, Proteins: 13000, Entities: 25000}

// writeScale is the dataset of http-mixed-rw, an eighth of fullScale
// (61 k triples). At the parent commit the cost of an update grows with
// the graph — about 0.1 s at fullScale, and a compaction several seconds —
// so an 8 s window there held 54 reads, 70 writes and not one finished
// compaction. At an eighth it holds about 500 reads, 480 writes and nine
// compaction cycles: a storage benchmark has to run until background work
// has completed several cycles, and a median over 50 reads of a class does
// not repeat.
var writeScale = Scale{Universities: 3, Proteins: 1625, Entities: 3125}

// smokeScale is the 1/16 dataset of the -smoke path and the tests.
var smokeScale = Scale{Universities: 2, Proteins: 1250, Entities: 2500}

// defaultSeed's dataset fingerprints are pinned: an edit to
// internal/datagen that changes the generated triples would silently move
// every workload, so it fails loudly instead.
const defaultSeed = 1

type fingerprint struct {
	Triples int
	FNV64   uint64
}

var pinned = map[Scale]fingerprint{
	fullScale:  {480765, 0xbc5a29fc7d045167},
	writeScale: {61382, 0x7666b991dc9cf20d},
	smokeScale: {47262, 0xd91dc8bfbe0a3e5b},
}

// subSeed derives an independent stream seed from the run seed and a
// label, so generators, query constants, schedules and update payloads
// never share a random stream.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// Dataset is the generated input: the N-Triples bytes the program loads,
// plus the constants the query families are parameterised over, read off
// the generated graph rather than re-derived from generator internals.
type Dataset struct {
	Scale       Scale
	NT          []byte
	Triples     int
	Fingerprint uint64
	GenerateS   float64
	Departments []string // IRIs typed ub:Department
	Places      []string // IRIs of the populated places (subjects of dbpowl:abstract)
	// Phones is each department's staff with their ub:telephone numbers,
	// the state the DELETE/INSERT … WHERE updates rewrite.
	Phones map[string][]phone
}

func generateDataset(seed int64, sc Scale) (*Dataset, error) {
	t0 := time.Now()
	lc := datagen.DefaultLUBMConfig(sc.Universities)
	lc.Seed = subSeed(seed, "datagen.lubm")
	uc := datagen.DefaultUniProtConfig(sc.Proteins)
	uc.Seed = subSeed(seed, "datagen.uniprot")
	dc := datagen.DefaultDBPediaConfig(sc.Entities)
	dc.Seed = subSeed(seed, "datagen.dbpedia")

	g := datagen.GenerateLUBM(lc)
	g.AddAll(datagen.GenerateUniProt(uc).Triples())
	g.AddAll(datagen.GenerateDBPedia(dc).Triples())

	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return nil, fmt.Errorf("serialize dataset: %w", err)
	}
	ds := &Dataset{Scale: sc, NT: buf.Bytes(), Triples: g.Len()}
	h := fnv.New64a()
	h.Write(ds.NT)
	ds.Fingerprint = h.Sum64()

	typ := rdf.NewIRI(datagen.RDFType)
	dept := rdf.NewIRI(datagen.UB + "Department")
	abstract := rdf.NewIRI(datagen.DBPOwl + "abstract")
	worksFor := rdf.NewIRI(datagen.UB + "worksFor")
	telephone := rdf.NewIRI(datagen.UB + "telephone")
	deptOf := map[string]string{}
	var phones []phone
	for _, t := range g.Triples() {
		switch {
		case t.P == typ && t.O == dept:
			ds.Departments = append(ds.Departments, t.S.Value)
		case t.P == abstract:
			ds.Places = append(ds.Places, t.S.Value)
		case t.P == worksFor:
			deptOf[t.S.Value] = t.O.Value
		case t.P == telephone:
			phones = append(phones, phone{t.S.Value, t.O.Value})
		}
	}
	ds.Phones = map[string][]phone{}
	for _, p := range phones {
		if d, ok := deptOf[p.prof]; ok {
			ds.Phones[d] = append(ds.Phones[d], p)
		}
	}
	sort.Strings(ds.Departments)
	sort.Strings(ds.Places)
	if len(ds.Departments) == 0 || len(ds.Places) == 0 {
		return nil, fmt.Errorf("dataset has %d departments and %d places; the query families need both", len(ds.Departments), len(ds.Places))
	}
	ds.GenerateS = time.Since(t0).Seconds()
	return ds, nil
}

// phoneTriples renders Phones back into the dataset's triples.
func (ds *Dataset) phoneTriples() []rdf.Triple {
	var out []rdf.Triple
	for _, ps := range ds.Phones {
		for _, p := range ps {
			out = append(out, rdf.TL(p.prof, datagen.UB+"telephone", p.number))
		}
	}
	return out
}

// checkFingerprint enforces the pin for the default seed.
func (ds *Dataset) checkFingerprint(seed int64) error {
	want, ok := pinned[ds.Scale]
	if seed != defaultSeed || !ok {
		return nil
	}
	if got := (fingerprint{ds.Triples, ds.Fingerprint}); got != want {
		return fmt.Errorf("dataset fingerprint for seed %d is %d triples fnv64=%016x, pinned %d triples fnv64=%016x: internal/datagen changed the workload; re-pin in benchmark/dataset.go only in a benchmark-only PR",
			seed, got.Triples, got.FNV64, want.Triples, want.FNV64)
	}
	return nil
}
