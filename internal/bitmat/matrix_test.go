package bitmat

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// matModel is the reference a Matrix is checked against: its shape and the
// set of its (row, col) bits.
type matModel struct {
	nRows, nCols int
	bits         map[[2]int]bool
}

func newMatModel(nRows, nCols int) *matModel {
	return &matModel{nRows: nRows, nCols: nCols, bits: map[[2]int]bool{}}
}

func (md *matModel) clone() *matModel {
	c := newMatModel(md.nRows, md.nCols)
	for k := range md.bits {
		c.bits[k] = true
	}
	return c
}

// setRow mirrors Matrix.SetRow: row r becomes exactly cols.
func (md *matModel) setRow(r int, cols []uint32) {
	for k := range md.bits {
		if k[0] == r {
			delete(md.bits, k)
		}
	}
	for _, c := range cols {
		md.bits[[2]int{r, int(c)}] = true
	}
}

// keep drops every bit for which in returns false.
func (md *matModel) keep(in func(r, c int) bool) {
	for k := range md.bits {
		if !in(k[0], k[1]) {
			delete(md.bits, k)
		}
	}
}

func (md *matModel) transpose() *matModel {
	t := newMatModel(md.nCols, md.nRows)
	for k := range md.bits {
		t.bits[[2]int{k[1], k[0]}] = true
	}
	return t
}

// rowCols returns every row's columns in ascending order.
func (md *matModel) rowCols() map[int][]uint32 {
	out := map[int][]uint32{}
	for k := range md.bits {
		out[k[0]] = append(out[k[0]], uint32(k[1]))
	}
	for _, cols := range out {
		slices.Sort(cols)
	}
	return out
}

// liveRows returns the ids of the rows of rc in ascending order.
func liveRows(rc map[int][]uint32) []int {
	ids := make([]int, 0, len(rc))
	for r := range rc {
		ids = append(ids, r)
	}
	slices.Sort(ids)
	return ids
}

// build materializes the model as a fresh Matrix, rows set in ascending
// order the way the loaders set them.
func (md *matModel) build() *Matrix {
	m := NewMatrix(md.nRows, md.nCols)
	rc := md.rowCols()
	for _, r := range liveRows(rc) {
		m.SetRow(r, bitvec.RowFromSortedPositions(md.nCols, rc[r]))
	}
	return m
}

// checkModel compares every observable of m against md: Count, LiveRows,
// Equal and WireSize against a fresh build, Row on every row index and
// just outside both ends of the row axis, Test on every set bit and its
// right neighbour, both folds, and ForEachRow. It also checks the
// directory's count column against the rows and Count.
func checkModel(t *testing.T, step string, m *Matrix, md *matModel) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", step, fmt.Sprintf(format, args...))
	}
	if m.NRows() != md.nRows || m.NCols() != md.nCols {
		fail("shape %dx%d, want %dx%d", m.NRows(), m.NCols(), md.nRows, md.nCols)
	}
	if m.Count() != int64(len(md.bits)) || m.Empty() != (len(md.bits) == 0) {
		fail("Count = %d, want %d", m.Count(), len(md.bits))
	}
	rc := md.rowCols()
	live := liveRows(rc)
	if m.LiveRows() != len(live) {
		fail("LiveRows = %d, want %d", m.LiveRows(), len(live))
	}
	if len(m.counts) != len(m.ids) || len(m.rows) != len(m.ids) {
		fail("directory columns %d ids, %d rows, %d counts", len(m.ids), len(m.rows), len(m.counts))
	}
	var sum int64
	for i, c := range m.counts {
		if int(c) != m.rows[i].Count() {
			fail("counts[%d] = %d, row %d holds %d bits", i, c, m.ids[i], m.rows[i].Count())
		}
		sum += int64(c)
	}
	if sum != m.Count() {
		fail("counts sum to %d, Count = %d", sum, m.Count())
	}
	fresh := md.build()
	if !m.Equal(fresh) || !fresh.Equal(m) {
		fail("not Equal to a fresh build of the model")
	}
	if m.WireSize() != fresh.WireSize() || m.RLEWireSize() != fresh.RLEWireSize() {
		fail("WireSize = %d/%d, fresh build %d/%d", m.WireSize(), m.RLEWireSize(), fresh.WireSize(), fresh.RLEWireSize())
	}
	for r := -1; r <= md.nRows; r++ {
		row := m.Row(r)
		var got []uint32
		if row != nil {
			if row.Count() == 0 {
				fail("row %d is stored empty", r)
			}
			row.ForEach(func(c int) bool { got = append(got, uint32(c)); return true })
		}
		if !slices.Equal(got, rc[r]) {
			fail("Row(%d) = %v, want %v", r, got, rc[r])
		}
	}
	fr, fc := m.Fold(Rows), m.Fold(Cols)
	if fr.Len() != md.nRows || fc.Len() != md.nCols {
		fail("fold lengths %d/%d", fr.Len(), fc.Len())
	}
	wantFC := bitvec.NewBits(md.nCols)
	for k := range md.bits {
		wantFC.Set(k[1])
	}
	if !fc.Equal(wantFC) {
		fail("FoldCols = %v, want %v", fc, wantFC)
	}
	var got []int
	m.ForEachRow(func(r int, row *bitvec.Row) bool {
		got = append(got, r)
		return true
	})
	if !slices.Equal(got, live) {
		fail("ForEachRow rows %v, want %v", got, live)
	}
	wantFR := bitvec.NewBits(md.nRows)
	for _, r := range live {
		wantFR.Set(r)
	}
	if !fr.Equal(wantFR) {
		fail("FoldRows = %v, want %v", fr, wantFR)
	}
}

// opReader hands out the bytes of an op stream, then zeros.
type opReader struct {
	data []byte
	at   int
}

func (o *opReader) next() int {
	if o.at >= len(o.data) {
		return 0
	}
	o.at++
	return int(o.data[o.at-1])
}

func (o *opReader) done() bool { return o.at >= len(o.data) }

// row draws a row for SetRow: nil, an explicitly empty row, a few scattered
// bits (sparse) or one contiguous run (run-length).
func (o *opReader) row(nCols int) (*bitvec.Row, []uint32) {
	var cols []uint32
	switch o.next() % 4 {
	case 0:
		return nil, nil
	case 1:
		return bitvec.EmptyRow(nCols), nil
	case 2:
		for k := o.next() % 5; k > 0; k-- {
			cols = append(cols, uint32(o.next()%nCols))
		}
	case 3:
		lo, n := o.next()%nCols, 1+o.next()%80
		for c := lo; c < nCols && c < lo+n; c++ {
			cols = append(cols, uint32(c))
		}
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	return bitvec.RowFromSortedPositions(nCols, slices.Clone(cols)), cols
}

// mask draws a mask over an axis of length n. Its length may be shorter
// than the axis: the missing bits count as clear. One mask in eight
// (state byte 7 mod 8) is sparse, about 1 bit in 64, so unfolds on both
// axes also see masks that keep few or no bits; the others set about 3
// bits in 4. The sparse draw reuses the state byte rather than reading
// another, so the seed corpus decodes as it did before sparse masks
// existed.
func (o *opReader) mask(n int) *bitvec.Bits {
	mask := bitvec.NewBits(o.next() % (n + 1))
	b := o.next()
	keep := func(x uint32) bool { return x%4 != 0 }
	if b%8 == 7 {
		keep = func(x uint32) bool { return x%64 == 0 }
	}
	x := uint32(b)*2654435761 | 1 // xorshift state, never zero
	for i := 0; i < mask.Len(); i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if keep(x) {
			mask.Set(i)
		}
	}
	return mask
}

// mutate applies one mutating op, drawn from o, to m and md alike.
func mutate(m *Matrix, md *matModel, o *opReader) string {
	switch o.next() % 3 {
	case 0:
		r := o.next() % md.nRows
		row, cols := o.row(md.nCols)
		m.SetRow(r, row)
		md.setRow(r, cols)
		return fmt.Sprintf("SetRow(%d, %v)", r, cols)
	case 1:
		mask := o.mask(md.nRows)
		m.UnfoldRows(mask)
		md.keep(func(r, _ int) bool { return mask.Test(r) })
		return fmt.Sprintf("UnfoldRows(%v)", mask)
	default:
		mask := o.mask(md.nCols)
		m.Unfold(mask, Cols)
		md.keep(func(_, c int) bool { return mask.Test(c) })
		return fmt.Sprintf("UnfoldCols(%v)", mask)
	}
}

// runMatrixOps interprets data as a shape and a stream of Matrix ops and
// checks the matrix against its model after every op.
func runMatrixOps(t *testing.T, data []byte) {
	o := &opReader{data: data}
	nRows, nCols := 1+o.next()%40, 1+o.next()%140
	m, md := NewMatrix(nRows, nCols), newMatModel(nRows, nCols)
	checkModel(t, "NewMatrix", m, md)
	for step := 0; !o.done() && step < 100; step++ {
		switch op := o.next() % 8; op {
		case 0, 1, 2:
			name := mutate(m, md, o)
			checkModel(t, fmt.Sprintf("step %d %s", step, name), m, md)
		case 3:
			// A mutated clone leaves its source as it was, and itself
			// follows its own copy of the model.
			snap := md.build()
			c, cmd := m.Clone(), md.clone()
			for k := 1 + o.next()%4; k > 0; k-- {
				name := mutate(c, cmd, o)
				checkModel(t, fmt.Sprintf("step %d clone %s", step, name), c, cmd)
			}
			if !m.Equal(snap) {
				t.Fatalf("step %d: mutating a clone changed its source", step)
			}
			checkModel(t, fmt.Sprintf("step %d clone source", step), m, md)
		case 4:
			tr := m.Transpose()
			checkModel(t, fmt.Sprintf("step %d Transpose", step), tr, md.transpose())
			if !tr.Transpose().Equal(m) {
				t.Fatalf("step %d: Transpose is not an involution", step)
			}
		case 5:
			lo, hi := o.next()%(nRows+4)-2, o.next()%(nRows+4)-2
			stopAfter := o.next() % 8
			var got, want []int
			fresh := md.build()
			m.ForEachRowRange(lo, hi, func(r int, row *bitvec.Row) bool {
				if !row.Equal(fresh.Row(r)) {
					t.Fatalf("step %d: ForEachRowRange row %d differs", step, r)
				}
				got = append(got, r)
				return stopAfter == 0 || len(got) < stopAfter
			})
			for _, r := range liveRows(md.rowCols()) {
				if r >= lo && r < hi && (stopAfter == 0 || len(want) < stopAfter) {
					want = append(want, r)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: ForEachRowRange(%d, %d) stop %d = %v, want %v", step, lo, hi, stopAfter, got, want)
			}
		case 6:
			// A Seek sequence: ascending, descending or scattered targets,
			// some out of range, each hint the last result or, now and
			// then, a stale or out-of-range one.
			rc := md.rowCols()
			order, hint := o.next()%3, o.next()%(nRows+4)-2
			for k := 1 + o.next()%8; k > 0; k-- {
				r := o.next()%(nRows+4) - 2
				switch order {
				case 0:
					r = nRows/2 + k
				case 1:
					r = nRows/2 - k
				}
				if o.next()%4 == 0 {
					hint = o.next()%(nRows+4) - 2
				}
				hint = checkSeek(t, fmt.Sprintf("step %d", step), m, rc, r, hint)
			}
		case 7:
			// CloneRows equals a clone unfolded by the same mask, and
			// mutating it leaves its source as it was. The row selection
			// behind it and UnfoldRows runs here on both sides of its
			// cut-over, in place and into a new matrix, whatever the
			// mask's density: 40 rows seldom reach the seek side.
			mask := o.mask(nRows)
			snap := md.build()
			c, cmd := m.CloneRows(mask), md.clone()
			cmd.keep(func(r, _ int) bool { return mask.Test(r) })
			checkModel(t, fmt.Sprintf("step %d CloneRows(%v)", step, mask), c, cmd)
			for _, seek := range []bool{true, false} {
				in, out := m.Clone(), NewMatrix(nRows, nCols)
				in.selectRows(mask, in, seek)
				m.selectRows(mask, out, seek)
				checkModel(t, fmt.Sprintf("step %d selectRows(%v) seek %v in place", step, mask, seek), in, cmd)
				checkModel(t, fmt.Sprintf("step %d selectRows(%v) seek %v", step, mask, seek), out, cmd)
			}
			for k := 1 + o.next()%4; k > 0; k-- {
				name := mutate(c, cmd, o)
				checkModel(t, fmt.Sprintf("step %d CloneRows %s", step, name), c, cmd)
			}
			if !m.Equal(snap) {
				t.Fatalf("step %d: mutating a CloneRows result changed its source", step)
			}
			checkModel(t, fmt.Sprintf("step %d CloneRows source", step), m, md)
		}
	}
}

// checkSeek seeks row r from hint and compares the row against the model's
// columns rc[r]; it returns the hint Seek hands back.
func checkSeek(t *testing.T, step string, m *Matrix, rc map[int][]uint32, r, hint int) int {
	t.Helper()
	row, next := m.Seek(r, hint)
	var got []uint32
	if row != nil {
		row.ForEach(func(c int) bool { got = append(got, uint32(c)); return true })
	}
	if !slices.Equal(got, rc[r]) {
		t.Fatalf("%s: Seek(%d, hint %d) = %v, want %v", step, r, hint, got, rc[r])
	}
	return next
}

// TestMatrixModel runs random op streams against the map model: SetRow in
// any row order (replacing and clearing rows with nil or empty rows),
// unfolds on both axes with dense and sparse masks up to the axis length,
// clones, row-masked clones, transposes, row ranges and Seek sequences,
// checking every observable after every op.
func TestMatrixModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runMatrixOps(t, data) })
	}
	// The op streams shape at most 40 rows, where a Seek seldom gallops
	// past two steps. This Seek case runs over 3 000 rows, 2 000 of them
	// live, jumping up to 1 000 rows ahead of the last result's hint (a
	// gallop of up to ten steps), with now and then a random target or a
	// stale hint.
	t.Run("seek-gallop", func(t *testing.T) {
		const nRows, nCols = 3000, 16
		m, md := NewMatrix(nRows, nCols), newMatModel(nRows, nCols)
		for r := 0; r < nRows; r++ {
			if r%3 != 0 {
				m.SetRow(r, bitvec.RowFromSortedPositions(nCols, []uint32{uint32(r % nCols)}))
				md.bits[[2]int{r, r % nCols}] = true
			}
		}
		checkModel(t, "build", m, md)
		rc := md.rowCols()
		rng := rand.New(rand.NewSource(1))
		r, hint := -2, 0
		for k := 0; k < 5000; k++ {
			switch rng.Intn(8) {
			case 0:
				r = rng.Intn(nRows+4) - 2
			case 1:
				hint = rng.Intn(m.LiveRows()+4) - 2
			default:
				if r += 1 + rng.Intn(1000); r > nRows+1 {
					r, hint = -2, 0
				}
			}
			hint = checkSeek(t, fmt.Sprintf("seek %d", k), m, rc, r, hint)
		}
	})
	// The op streams' row masks select among at most 40 rows, so a seek
	// path gallops a step or two. This case selects from 3 000 rows, 2 000
	// of them live, with masks on both sides of the seek cut-over, in
	// place (UnfoldRows) and into a clone (CloneRows).
	t.Run("unfold-seek", func(t *testing.T) {
		const nRows, nCols = 3000, 16
		base, md := NewMatrix(nRows, nCols), newMatModel(nRows, nCols)
		for r := 0; r < nRows; r++ {
			if r%3 != 0 {
				base.SetRow(r, bitvec.RowFromSortedPositions(nCols, []uint32{uint32(r % (nCols - 1)), nCols - 1}))
				md.bits[[2]int{r, r % (nCols - 1)}] = true
				md.bits[[2]int{r, nCols - 1}] = true
			}
		}
		rng := rand.New(rand.NewSource(2))
		sides := [2]int{}
		for trial := 0; trial < 200; trial++ {
			// Masks of 1 to ~1 000 set bits, some clustered in one span,
			// some ending at the last row or past the axis.
			n := nRows + rng.Intn(3) - 1
			mask := bitvec.NewBits(n)
			bits := 1 + rng.Intn([]int{4, 40, 400, 1000}[trial%4])
			lo, span := rng.Intn(nRows), 1+rng.Intn(nRows)
			for k := 0; k < bits; k++ {
				mask.Set(min(lo+rng.Intn(span), n-1))
			}
			if trial%5 == 0 {
				mask.Set(n - 1)
			}
			seek := mask.Count()*seekDensity < base.LiveRows()
			if seek {
				sides[0]++
			} else {
				sides[1]++
			}
			want := md.clone()
			want.keep(func(r, _ int) bool { return mask.Test(r) })
			step := fmt.Sprintf("trial %d (%d mask bits, seek %v)", trial, mask.Count(), seek)
			checkModel(t, step+" CloneRows", base.CloneRows(mask), want)
			in := base.Clone()
			in.UnfoldRows(mask)
			checkModel(t, step+" UnfoldRows", in, want)
		}
		checkModel(t, "source", base, md)
		if sides[0] == 0 || sides[1] == 0 {
			t.Fatalf("masks on the seek side %d times, the scan side %d: both must run", sides[0], sides[1])
		}
	})
}

// FuzzMatrixOps is TestMatrixModel under the fuzzer's byte mutations.
func FuzzMatrixOps(f *testing.F) {
	f.Add([]byte{})
	// 4x10: set rows 3 then 1 (out of order), replace row 3, clear row 1
	// with nil and row 3 with an empty row.
	f.Add([]byte{3, 9, 0, 0, 3, 2, 2, 1, 5, 0, 0, 1, 3, 2, 4, 0, 0, 3, 2, 1, 7, 0, 0, 1, 0, 0, 0, 3, 1})
	// 8x140: a 41-bit run row, a 3-bit row mask, a transpose and a range.
	f.Add([]byte{7, 139, 0, 0, 5, 3, 0, 200, 2, 1, 3, 9, 4, 5, 1, 6, 0})
	f.Fuzz(runMatrixOps)
}

// allocSink keeps the allocation test's work from being optimized away.
var allocSink int

// TestMatrixAllocsIndependentOfDimension pins the condensed layout: with
// the same 50 live rows, Clone + UnfoldRows + UnfoldCols + CloneRows +
// ForEachRow + both folds allocate the same bytes in a 10^3 x 10^3 matrix
// as in a 10^6 x 10^6 one, and NewMatrix allocates O(1) however large its
// shape. A fold's bitvec.Bits stores only the words between its first and
// last set bit, so folds are sized by the live rows and columns too.
func TestMatrixAllocsIndependentOfDimension(t *testing.T) {
	const live = 50
	type fixture struct {
		m                *Matrix
		rowMask, colMask *bitvec.Bits
	}
	mk := func(n int) fixture {
		m := NewMatrix(n, n)
		rowMask, colMask := bitvec.NewBits(n), bitvec.NewBits(n)
		for i := 0; i < live; i++ {
			r := i * 19
			m.SetRow(r, bitvec.RowFromSortedPositions(n, []uint32{uint32(r), uint32(r + 3), uint32(r + 7)}))
			if i%3 != 0 {
				rowMask.Set(r)
			}
			colMask.Set(r + 3)
			colMask.Set(r + 7)
		}
		return fixture{m, rowMask, colMask}
	}
	work := func(fx fixture) func() {
		return func() {
			c := fx.m.Clone()
			c.UnfoldRows(fx.rowMask)
			c.UnfoldCols(fx.colMask)
			c = c.CloneRows(fx.rowMask)
			c.ForEachRow(func(r int, row *bitvec.Row) bool { allocSink += r; return true })
			allocSink += c.FoldRows().Count() + c.FoldCols().Count()
		}
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 200
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, big := mk(1_000), mk(1_000_000)
	if a, b := testing.AllocsPerRun(100, work(small)), testing.AllocsPerRun(100, work(big)); a != b {
		t.Errorf("allocations per run: %v at 10^3 rows, %v at 10^6", a, b)
	}
	if a, b := bytesPerRun(work(small)), bytesPerRun(work(big)); a != b {
		t.Errorf("bytes per run: %d at 10^3 rows, %d at 10^6", a, b)
	}
	newBig := func() { allocSink += NewMatrix(1_000_000, 1_000_000).NRows() }
	if n := testing.AllocsPerRun(100, newBig); n > 1 {
		t.Errorf("NewMatrix(10^6, 10^6) made %v allocations, want at most 1", n)
	}
	if b := bytesPerRun(newBig); b > 128 {
		t.Errorf("NewMatrix(10^6, 10^6) allocated %d bytes, want O(1)", b)
	}
}

// randomMatrix fills about density of the rows of an nRows x nCols matrix,
// each with a few set bits.
func randomMatrix(rng *rand.Rand, nRows, nCols int, density float64) *Matrix {
	m := NewMatrix(nRows, nCols)
	for r := 0; r < nRows; r++ {
		if rng.Float64() >= density {
			continue
		}
		var pos []uint32
		for c := 0; c < nCols; c++ {
			if rng.Intn(4) == 0 {
				pos = append(pos, uint32(c))
			}
		}
		m.SetRow(r, bitvec.RowFromSortedPositions(nCols, pos))
	}
	return m
}

// TestMatrixSeekMatchesRow checks Seek against Row on random matrices:
// ascending, descending and scattered target sequences with targets out
// of range on both sides, each probed with the hint the previous Seek
// returned and, separately, with stale and out-of-range hints.
func TestMatrixSeekMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nRows := 1 + rng.Intn(200)
		m := randomMatrix(rng, nRows, 1+rng.Intn(20), []float64{0, 0.05, 0.5, 1}[trial%4])
		targets := make([]int, 1+rng.Intn(3*nRows))
		for k := range targets {
			targets[k] = rng.Intn(nRows+6) - 3
		}
		switch trial % 3 {
		case 0:
			slices.Sort(targets)
		case 1:
			slices.Sort(targets)
			slices.Reverse(targets)
		}
		hint := 0
		for _, r := range targets {
			want := m.Row(r)
			var got *bitvec.Row
			got, hint = m.Seek(r, hint)
			if got != want {
				t.Fatalf("trial %d: Seek(%d) with the returned hint = %v, Row = %v", trial, r, got, want)
			}
			for _, h := range []int{-5, -1, 0, rng.Intn(nRows + 1), m.LiveRows() - 1, m.LiveRows(), m.LiveRows() + 7} {
				if got, _ := m.Seek(r, h); got != want {
					t.Fatalf("trial %d: Seek(%d, hint %d) = %v, Row = %v", trial, r, h, got, want)
				}
			}
		}
	}
}

// BenchmarkMatrixSeek probes every live row of a 10^5-row matrix in
// ascending order, the join's bound-row pattern, through Seek with the
// running hint and through Row's whole-directory binary search.
func BenchmarkMatrixSeek(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 100_000, 8, 0.3)
	var ids []int
	m.ForEachRow(func(r int, _ *bitvec.Row) bool { ids = append(ids, r); return true })
	b.Run("seek", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hint := 0
			for _, r := range ids {
				var row *bitvec.Row
				row, hint = m.Seek(r, hint)
				allocSink += row.Count()
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range ids {
				allocSink += m.Row(r).Count()
			}
		}
	})
}

// selectBench is the fixture of the row-selection density sweep: a
// 10^5-row matrix with about 3*10^4 live rows, and row masks with one set
// bit per d live rows, at random rows, for d from 1 to 256. The seek
// path wins at the sparse end and the scan at the dense end; seekDensity
// sits where they cross.
func selectBench(b *testing.B, run func(b *testing.B, m *Matrix, mask *bitvec.Bits, seek bool)) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 100_000, 8, 0.3)
	for _, d := range []int{256, 64, 32, 16, 12, 8, 4, 1} {
		mask := bitvec.NewBits(m.NRows())
		for k := m.LiveRows() / d; k > 0; k-- {
			mask.Set(rng.Intn(m.NRows()))
		}
		for _, path := range []struct {
			name string
			seek bool
		}{{"seek", true}, {"scan", false}} {
			b.Run(fmt.Sprintf("live-per-bit=%d/%s", d, path.name), func(b *testing.B) {
				b.ReportAllocs()
				run(b, m, mask, path.seek)
			})
		}
	}
}

// BenchmarkUnfoldRows times the in-place row selection behind UnfoldRows
// on both sides of its cut-over (seekDensity) across mask densities.
// Each iteration unfolds a fresh clone, made with the timer stopped.
func BenchmarkUnfoldRows(b *testing.B) {
	selectBench(b, func(b *testing.B, m *Matrix, mask *bitvec.Bits, seek bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := m.Clone()
			b.StartTimer()
			c.selectRows(mask, c, seek)
			allocSink += c.LiveRows()
		}
	})
}

// BenchmarkCloneRows times the row selection behind CloneRows, into a
// new directory, on both sides of its cut-over across mask densities.
func BenchmarkCloneRows(b *testing.B) {
	selectBench(b, func(b *testing.B, m *Matrix, mask *bitvec.Bits, seek bool) {
		for i := 0; i < b.N; i++ {
			c := NewMatrix(m.NRows(), m.NCols())
			m.selectRows(mask, c, seek)
			allocSink += c.LiveRows()
		}
	})
}
