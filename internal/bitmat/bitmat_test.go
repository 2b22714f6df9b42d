package bitmat

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rdf"
)

// figure32Graph is the sample data of Figure 3.2, also the data whose
// bitcube is drawn in Figure 4.1.
func figure32Graph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{
		rdf.T("Julia", "actedIn", "Seinfeld"),
		rdf.T("Julia", "actedIn", "Veep"),
		rdf.T("Julia", "actedIn", "NewAdvOldChristine"),
		rdf.T("Julia", "actedIn", "CurbYourEnthu"),
		rdf.T("Larry", "actedIn", "CurbYourEnthu"),
		rdf.T("Jerry", "hasFriend", "Julia"),
		rdf.T("Jerry", "hasFriend", "Larry"),
		rdf.T("Seinfeld", "location", "NewYorkCity"),
		rdf.T("Veep", "location", "D.C."),
		rdf.T("CurbYourEnthu", "location", "LosAngeles"),
		rdf.T("NewAdvOldChristine", "location", "Jersey"),
	} {
		g.Add(tr)
	}
	return g
}

func buildSample(t *testing.T) (*Index, *rdf.Dictionary) {
	t.Helper()
	idx, err := Build(figure32Graph())
	if err != nil {
		t.Fatal(err)
	}
	return idx, idx.Dictionary()
}

func TestFigure41Bitcube(t *testing.T) {
	// Figure 4.1 slices the bitcube of the Figure 3.2 data along the
	// predicate dimension. Verify each S-O slice holds exactly the triples
	// of that predicate.
	idx, dict := buildSample(t)
	g := figure32Graph()
	for p := 1; p <= dict.NumPredicates(); p++ {
		so := MatSO(idx, rdf.ID(p), nil, nil)
		pred, _ := dict.Predicate(rdf.ID(p))
		wantCount := 0
		for _, tr := range g.Triples() {
			if tr.P != pred {
				continue
			}
			wantCount++
			s := dict.SOID(tr.S)
			o := dict.SOID(tr.O)
			if row := so.Row(int(s - 1)); row == nil || !row.Test(int(o-1)) {
				t.Errorf("S-O BitMat of %s missing (%s,%s)", pred, tr.S, tr.O)
			}
		}
		if int(so.Count()) != wantCount {
			t.Errorf("S-O BitMat of %s has %d bits, want %d", pred, so.Count(), wantCount)
		}
		// The O-S BitMat is the transpose.
		os := MatOS(idx, rdf.ID(p), nil, nil)
		if !os.Equal(so.Transpose()) {
			t.Errorf("O-S BitMat of %s is not the transpose of S-O", pred)
		}
	}
	// hasFriend has exactly two set bits (Jerry->Julia, Jerry->Larry), as
	// in the figure.
	hf := dict.PredicateID(rdf.NewIRI("hasFriend"))
	if got := MatSO(idx, hf, nil, nil).Count(); got != 2 {
		t.Errorf("hasFriend slice has %d bits, want 2", got)
	}
}

func TestIndexCardinalities(t *testing.T) {
	idx, dict := buildSample(t)
	cases := []struct {
		pred string
		want int64
	}{{"actedIn", 5}, {"hasFriend", 2}, {"location", 4}}
	for _, c := range cases {
		p := dict.PredicateID(rdf.NewIRI(c.pred))
		if got := Count(idx, 0, p, 0); got != c.want {
			t.Errorf("Count(?s %s ?o) = %d, want %d", c.pred, got, c.want)
		}
	}
	julia := dict.SOID(rdf.NewIRI("Julia"))
	if got := Count(idx, julia, 0, 0); got != 4 {
		t.Errorf("Count(Julia ?p ?o) = %d, want 4", got)
	}
	curb := dict.SOID(rdf.NewIRI("CurbYourEnthu"))
	if got := Count(idx, 0, 0, curb); got != 2 {
		t.Errorf("Count(?s ?p CurbYourEnthu) = %d, want 2", got)
	}
	if Count(idx, 999, 0, 0) != 0 || Count(idx, 0, 999, 0) != 0 || Count(idx, 0, 0, 999) != 0 {
		t.Error("out-of-range counts must be 0")
	}
	if got := Count(idx, 0, 0, 0); got != idx.NumTriples() {
		t.Errorf("Count(?s ?p ?o) = %d, want %d", got, idx.NumTriples())
	}
}

func TestRowPSAndRowPO(t *testing.T) {
	idx, dict := buildSample(t)
	// (?who actedIn CurbYourEnthu) -> Julia and Larry.
	p := dict.PredicateID(rdf.NewIRI("actedIn"))
	o := dict.SOID(rdf.NewIRI("CurbYourEnthu"))
	m := RowPS(idx, p, o)
	if m.Count() != 2 {
		t.Fatalf("RowPS count = %d, want 2", m.Count())
	}
	for _, name := range []string{"Julia", "Larry"} {
		s := dict.SOID(rdf.NewIRI(name))
		if !m.Row(0).Test(int(s - 1)) {
			t.Errorf("RowPS missing %s", name)
		}
	}
	// (Jerry hasFriend ?x) -> Julia and Larry.
	hf := dict.PredicateID(rdf.NewIRI("hasFriend"))
	jerry := dict.SOID(rdf.NewIRI("Jerry"))
	m2 := RowPO(idx, hf, jerry)
	if m2.Count() != 2 {
		t.Fatalf("RowPO count = %d, want 2", m2.Count())
	}
	// Unknown key gives an empty matrix, not a panic.
	if RowPO(idx, hf, 0).Count() != 0 || RowPS(idx, 0, o).Count() != 0 {
		t.Error("zero IDs must give empty matrices")
	}
}

func TestContains(t *testing.T) {
	idx, dict := buildSample(t)
	enc := func(s, p, o string) (rdf.ID, rdf.ID, rdf.ID) {
		return dict.SOID(rdf.NewIRI(s)), dict.PredicateID(rdf.NewIRI(p)), dict.SOID(rdf.NewIRI(o))
	}
	s, p, o := enc("Julia", "actedIn", "Seinfeld")
	if !idx.Contains(s, p, o) {
		t.Error("Contains must find an indexed triple")
	}
	s2, p2, o2 := enc("Larry", "actedIn", "Seinfeld")
	if idx.Contains(s2, p2, o2) {
		t.Error("Contains must reject a non-triple")
	}
}

func TestMatPSMatPOFamilies(t *testing.T) {
	idx, dict := buildSample(t)
	// P-O BitMat of Julia: rows over predicates, one row (actedIn) with 4 bits.
	julia := dict.SOID(rdf.NewIRI("Julia"))
	po := MatPO(idx, julia)
	if po.NRows() != dict.NumPredicates() || po.Count() != 4 {
		t.Fatalf("MatPO(Julia): rows=%d count=%d", po.NRows(), po.Count())
	}
	actedIn := dict.PredicateID(rdf.NewIRI("actedIn"))
	if po.Row(int(actedIn-1)) == nil || po.Row(int(actedIn-1)).Count() != 4 {
		t.Error("MatPO(Julia) actedIn row must have 4 objects")
	}
	// P-S BitMat of Seinfeld: actedIn row has Julia; location row is empty
	// (Seinfeld is the subject of location, not the object).
	seinfeld := dict.SOID(rdf.NewIRI("Seinfeld"))
	ps := MatPS(idx, seinfeld)
	if ps.Count() != 1 {
		t.Fatalf("MatPS(Seinfeld) count = %d, want 1", ps.Count())
	}
}

func TestMatrixFoldUnfold(t *testing.T) {
	m := NewMatrix(4, 6)
	m.SetRow(0, bitvec.RowFromSortedPositions(6, []uint32{0, 2}))
	m.SetRow(2, bitvec.RowFromSortedPositions(6, []uint32{2, 5}))
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
	fc := m.FoldCols()
	if got := fc.String(); got != "101001" {
		t.Errorf("FoldCols = %s, want 101001", got)
	}
	fr := m.FoldRows()
	if got := fr.String(); got != "1010" {
		t.Errorf("FoldRows = %s, want 1010", got)
	}
	// Unfold cols with a mask keeping only column 2.
	mask := bitvec.NewBits(6)
	mask.Set(2)
	mc := m.Clone()
	mc.UnfoldCols(mask)
	row0, row2 := mc.Row(0), mc.Row(2)
	if mc.Count() != 2 || row0 == nil || row2 == nil || !row0.Test(2) || !row2.Test(2) || row0.Test(0) {
		t.Errorf("UnfoldCols left wrong bits: count=%d", mc.Count())
	}
	// Original untouched.
	if m.Count() != 4 {
		t.Error("Clone must isolate unfold effects")
	}
	// Unfold rows keeping only row 2.
	rmask := bitvec.NewBits(4)
	rmask.Set(2)
	mr := m.Clone()
	mr.UnfoldRows(rmask)
	if mr.Count() != 2 || mr.Row(0) != nil || mr.Row(2) == nil {
		t.Errorf("UnfoldRows left wrong rows: count=%d", mr.Count())
	}
}

func TestMatrixFoldIsProjection(t *testing.T) {
	// fold(BM, dim) == pi_dim(BM): the fold of the column axis must equal
	// the set of distinct column coordinates of the set bits.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(40)
		m := NewMatrix(nr, nc)
		want := map[int]bool{}
		wantRows := map[int]bool{}
		for i := 0; i < 60; i++ {
			r, c := rng.Intn(nr), rng.Intn(nc)
			old := m.Row(r)
			var pos []uint32
			if old != nil {
				old.ForEach(func(j int) bool { pos = append(pos, uint32(j)); return true })
			}
			pos = append(pos, uint32(c))
			slices.Sort(pos)
			m.SetRow(r, bitvec.RowFromSortedPositions(nc, slices.Compact(pos)))
			want[c] = true
			wantRows[r] = true
		}
		fc := m.FoldCols()
		for c := 0; c < nc; c++ {
			if fc.Test(c) != want[c] {
				t.Fatalf("FoldCols bit %d = %v, want %v", c, fc.Test(c), want[c])
			}
		}
		fr := m.FoldRows()
		for r := 0; r < nr; r++ {
			if fr.Test(r) != wantRows[r] {
				t.Fatalf("FoldRows bit %d = %v, want %v", r, fr.Test(r), wantRows[r])
			}
		}
	}
}

func TestMatrixUnfoldFoldInvariant(t *testing.T) {
	// After unfold(m, mask, axis), fold(m, axis) must be a subset of mask.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(15), 1+rng.Intn(30)
		m := NewMatrix(nr, nc)
		for r := 0; r < nr; r++ {
			var pos []uint32
			for c := 0; c < nc; c++ {
				if rng.Intn(3) == 0 {
					pos = append(pos, uint32(c))
				}
			}
			if len(pos) > 0 {
				m.SetRow(r, bitvec.RowFromSortedPositions(nc, pos))
			}
		}
		mask := bitvec.NewBits(nc)
		for c := 0; c < nc; c++ {
			if rng.Intn(2) == 0 {
				mask.Set(c)
			}
		}
		m.UnfoldCols(mask)
		sub := m.FoldCols()
		sub.AndNot(mask)
		if sub.Any() {
			return false
		}
		// Count must equal sum of row counts.
		var sum int64
		m.ForEachRow(func(r int, row *bitvec.Row) bool { sum += int64(row.Count()); return true })
		return sum == m.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMatrixTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(20)
		m := NewMatrix(nr, nc)
		for r := 0; r < nr; r++ {
			var pos []uint32
			for c := 0; c < nc; c++ {
				if rng.Intn(4) == 0 {
					pos = append(pos, uint32(c))
				}
			}
			if len(pos) > 0 {
				m.SetRow(r, bitvec.RowFromSortedPositions(nc, pos))
			}
		}
		if !m.Transpose().Transpose().Equal(m) {
			t.Fatal("Transpose must be an involution")
		}
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	idx, dict := buildSample(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf, dict)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTriples() != idx.NumTriples() {
		t.Fatalf("round trip triples %d, want %d", back.NumTriples(), idx.NumTriples())
	}
	for p := 1; p <= dict.NumPredicates(); p++ {
		if !MatSO(back, rdf.ID(p), nil, nil).Equal(MatSO(idx, rdf.ID(p), nil, nil)) {
			t.Errorf("predicate %d S-O mismatch after round trip", p)
		}
		if !MatOS(back, rdf.ID(p), nil, nil).Equal(MatOS(idx, rdf.ID(p), nil, nil)) {
			t.Errorf("predicate %d O-S mismatch after round trip", p)
		}
	}
	for s := 1; s <= dict.NumSO(); s++ {
		if !MatPO(back, rdf.ID(s)).Equal(MatPO(idx, rdf.ID(s))) {
			t.Errorf("subject %d P-O mismatch", s)
		}
	}
}

func TestIndexSerializationRejectsCorrupt(t *testing.T) {
	idx, dict := buildSample(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X'
	if _, err := ReadIndex(bytes.NewReader(raw), dict); err == nil {
		t.Error("bad magic must be rejected")
	}
}

func TestSizes(t *testing.T) {
	idx, dict := buildSample(t)
	rep := idx.Sizes()
	st := idx.Stats()
	wantMats := 2*dict.NumPredicates() + st.Subjects + st.Objects
	if rep.BitMats != wantMats {
		t.Errorf("BitMats = %d, want %d (2|Vp|+|Vs|+|Vo|)", rep.BitMats, wantMats)
	}
	if rep.TriplesStored != idx.NumTriples() {
		t.Errorf("TriplesStored = %d, want %d", rep.TriplesStored, idx.NumTriples())
	}
	if rep.HybridInts <= 0 || rep.RLEInts < rep.HybridInts {
		t.Errorf("size accounting broken: hybrid=%d rle=%d", rep.HybridInts, rep.RLEInts)
	}
}

func TestSetRowAccounting(t *testing.T) {
	m := NewMatrix(3, 8)
	m.SetRow(0, bitvec.RowFromSortedPositions(8, []uint32{1, 2, 3}))
	m.SetRow(0, bitvec.RowFromSortedPositions(8, []uint32{5}))
	if m.Count() != 1 {
		t.Fatalf("Count after row replacement = %d, want 1", m.Count())
	}
	m.SetRow(0, bitvec.EmptyRow(8))
	if m.Count() != 0 || m.Row(0) != nil {
		t.Error("empty row must normalize to nil")
	}
}

func TestSetRowWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetRow with wrong length must panic")
		}
	}()
	NewMatrix(2, 8).SetRow(0, bitvec.RowFromSortedPositions(9, []uint32{0}))
}
