package bitmat

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/rdf"
)

func parallelFixture(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("n%03d", i%151)
		o := fmt.Sprintf("n%03d", (i*7+1)%151)
		g.Add(rdf.T(s, fmt.Sprintf("p%d", i%13), o))
		if i%5 == 0 {
			g.Add(rdf.TL(s, "label", fmt.Sprintf("v%d", i)))
		}
	}
	return g
}

func indexBytes(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceBuild is the naive sequential build the pipeline is checked
// against: encode each triple in order, append its pairs to their
// buckets, then sort every bucket. It fails on the first triple, in
// order, that dict cannot encode.
func referenceBuild(triples []rdf.Triple, dict *rdf.Dictionary) (*Index, error) {
	idx := &Index{
		dict:      dict,
		soPairs:   make([][]Pair, dict.NumPredicates()),
		osPairs:   make([][]Pair, dict.NumPredicates()),
		bySubject: make([][]Pair, dict.NumSubjects()),
		byObject:  make([][]Pair, dict.NumObjects()),
	}
	for _, tr := range triples {
		it, err := dict.Encode(tr)
		if err != nil {
			return nil, fmt.Errorf("bitmat: %w", err)
		}
		p, s, o := it.P-1, uint32(it.S), uint32(it.O)
		idx.soPairs[p] = append(idx.soPairs[p], Pair{A: s, B: o})
		idx.osPairs[p] = append(idx.osPairs[p], Pair{A: o, B: s})
		idx.bySubject[it.S-1] = append(idx.bySubject[it.S-1], Pair{A: uint32(it.P), B: o})
		idx.byObject[it.O-1] = append(idx.byObject[it.O-1], Pair{A: uint32(it.P), B: s})
		idx.nTriples++
	}
	for _, fam := range [][][]Pair{idx.soPairs, idx.osPairs, idx.bySubject, idx.byObject} {
		for _, l := range fam {
			sort.Slice(l, func(i, j int) bool {
				if l[i].A != l[j].A {
					return l[i].A < l[j].A
				}
				return l[i].B < l[j].B
			})
		}
	}
	return idx, nil
}

// TestBuildParallelByteIdentical forces the parallel path on a small
// fixture and pins that every worker count persists to exactly the
// reference build's bytes — the property SaveIndex snapshots rely on.
func TestBuildParallelByteIdentical(t *testing.T) {
	oldGate := parallelBuildMinTriples
	parallelBuildMinTriples = 1
	defer func() { parallelBuildMinTriples = oldGate }()

	g := parallelFixture(2500)
	seq, err := referenceBuild(g.Triples(), g.Dictionary())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Validate(); err != nil {
		t.Fatalf("reference index invalid: %v", err)
	}
	want := indexBytes(t, seq)
	var wantDict bytes.Buffer
	if _, err := seq.Dictionary().WriteTo(&wantDict); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, -2} {
		par, err := BuildParallel(g, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("workers=%d: invalid index: %v", workers, err)
		}
		if got := indexBytes(t, par); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: index bytes differ from the reference build", workers)
		}
		var gotDict bytes.Buffer
		if _, err := par.Dictionary().WriteTo(&gotDict); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDict.Bytes(), wantDict.Bytes()) {
			t.Fatalf("workers=%d: dictionary bytes differ from the reference build", workers)
		}
		if par.NumTriples() != seq.NumTriples() {
			t.Fatalf("workers=%d: %d triples, want %d", workers, par.NumTriples(), seq.NumTriples())
		}
	}
}

// TestBuildParallelEncodeError pins that a dictionary that cannot encode
// the triples fails the build, at any worker count, with the reference
// build's error (the first failing triple in graph order).
func TestBuildParallelEncodeError(t *testing.T) {
	g := parallelFixture(300)
	// A dictionary over a strict subset of the graph cannot encode it.
	small := rdf.NewGraph()
	small.Add(g.Triples()[0])
	dict := small.Dictionary()

	_, want := referenceBuild(g.Triples(), dict)
	if want == nil {
		t.Fatal("reference build must fail")
	}
	for _, workers := range []int{1, 4} {
		_, err := BuildParallelWithDictionary(g.Triples(), dict, workers)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

// TestValidateCatchesShapeDrift covers the SaveIndex assertion.
func TestValidateCatchesShapeDrift(t *testing.T) {
	g := parallelFixture(100)
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("fresh index must validate: %v", err)
	}
	idx.nTriples++ // simulate a count bug
	if err := idx.Validate(); err == nil {
		t.Fatal("Validate must catch a triple-count mismatch")
	}
}
