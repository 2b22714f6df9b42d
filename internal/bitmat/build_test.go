package bitmat

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/rdf"
)

func buildFixture(n int) *rdf.Graph {
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

// dictionaryOf builds the dictionary of g's triples.
func dictionaryOf(g *rdf.Graph) *rdf.Dictionary {
	b := rdf.NewDictionaryBuilder()
	for _, tr := range g.Triples() {
		b.Add(tr)
	}
	d, _ := b.Build()
	return d
}

// referenceBuild is the naive build Build is checked against: encode
// each triple in order, append its pairs to unsized buckets, then sort
// every bucket with sort.Slice. It fails on the first triple, in
// order, that dict cannot encode.
func referenceBuild(triples []rdf.Triple, dict *rdf.Dictionary) (*Index, error) {
	idx := &Index{
		dict:      dict,
		soPairs:   make([][]Pair, dict.NumPredicates()),
		osPairs:   make([][]Pair, dict.NumPredicates()),
		bySubject: make([][]Pair, dict.NumSO()),
		byObject:  make([][]Pair, dict.NumSO()),
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

// TestBuildParallelByteIdentical pins that Build persists to exactly the
// reference build's bytes and dictionary — the property SaveIndex
// snapshots rely on — and that the BuildParallel wrapper, whatever its
// worker argument, is the same build.
func TestBuildParallelByteIdentical(t *testing.T) {
	g := buildFixture(2500)
	ref, err := referenceBuild(g.Triples(), dictionaryOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("reference index invalid: %v", err)
	}
	want := indexBytes(t, ref)
	var wantDict bytes.Buffer
	if _, err := ref.Dictionary().WriteTo(&wantDict); err != nil {
		t.Fatal(err)
	}
	builds := map[string]func() (*Index, error){
		"Build":             func() (*Index, error) { return Build(g) },
		"BuildParallel(8)":  func() (*Index, error) { return BuildParallel(g, 8) },
		"BuildParallel(-2)": func() (*Index, error) { return BuildParallel(g, -2) },
	}
	for name, build := range builds {
		idx, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := idx.Validate(); err != nil {
			t.Fatalf("%s: invalid index: %v", name, err)
		}
		if got := indexBytes(t, idx); !bytes.Equal(got, want) {
			t.Fatalf("%s: index bytes differ from the reference build", name)
		}
		var gotDict bytes.Buffer
		if _, err := idx.Dictionary().WriteTo(&gotDict); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDict.Bytes(), wantDict.Bytes()) {
			t.Fatalf("%s: dictionary bytes differ from the reference build", name)
		}
		if idx.NumTriples() != ref.NumTriples() {
			t.Fatalf("%s: %d triples, want %d", name, idx.NumTriples(), ref.NumTriples())
		}
	}
}

// TestBuildDuplicatesCollapse pins that the builder takes duplicate
// triples: the index of a slice with every triple repeated, in reverse
// order, is byte-identical to the reference build of the distinct set.
func TestBuildDuplicatesCollapse(t *testing.T) {
	g := buildFixture(600)
	ref, err := referenceBuild(g.Triples(), dictionaryOf(g))
	if err != nil {
		t.Fatal(err)
	}
	ts := append([]rdf.Triple(nil), g.Triples()...)
	for i := len(g.Triples()) - 1; i >= 0; i-- {
		ts = append(ts, g.Triples()[i])
	}
	idx, err := BuildTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if idx.NumTriples() != int64(g.Len()) {
		t.Fatalf("%d triples, want %d", idx.NumTriples(), g.Len())
	}
	if !bytes.Equal(indexBytes(t, idx), indexBytes(t, ref)) {
		t.Fatal("index bytes differ from the reference build of the distinct triples")
	}

	b := NewBuilder()
	for _, tr := range ts {
		b.Add(tr)
	}
	got := b.Triples()
	if len(got) != len(ts) {
		t.Fatalf("Builder.Triples: %d triples, want %d", len(got), len(ts))
	}
	for i, tr := range got {
		if tr != ts[i] {
			t.Fatalf("Builder.Triples[%d] = %v, want %v (Add order)", i, tr, ts[i])
		}
	}
}

// TestValidateCatchesShapeDrift covers the SaveIndex assertion.
func TestValidateCatchesShapeDrift(t *testing.T) {
	g := buildFixture(100)
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
