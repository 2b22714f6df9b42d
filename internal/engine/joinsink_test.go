package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// starQuery is a star with two OPTIONAL arms: one row per subject, with
// the arms bound for some subjects and NULL for the others.
const starQuery = `SELECT * WHERE { ?x <p> ?a . OPTIONAL { ?x <q> ?b } OPTIONAL { ?x <r> ?c } }`

// starGraph gives n subjects a <p> value each, every second one a <q>
// value and every third one an <r> value, so starQuery has n rows.
func starGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("s%d", i)
		g.Add(rdf.T(s, "p", fmt.Sprintf("a%d", i%97)))
		if i%2 == 0 {
			g.Add(rdf.T(s, "q", fmt.Sprintf("b%d", i%89)))
		}
		if i%3 == 0 {
			g.Add(rdf.T(s, "r", fmt.Sprintf("c%d", i%83)))
		}
	}
	return g
}

// starEngine is a one-worker engine over starGraph(n) whose MatCache
// already holds the star's matrices, so a query's loads are clones and
// what grows with n is the join and its row sink.
func starEngine(tb testing.TB, n int) (*Engine, *sparql.Query) {
	tb.Helper()
	q, err := sparql.Parse(starQuery)
	if err != nil {
		tb.Fatal(err)
	}
	e := NewWithCache(indexOf(tb, starGraph(n)), Options{Workers: 1}, NewMatCache(1<<30).Advance(1))
	res, err := e.Execute(context.Background(), q, nil) // admits every pattern
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) != n {
		tb.Fatalf("star over %d subjects gave %d rows", n, len(res.Rows))
	}
	return e, q
}

// TestJoinRowSinkAllocs pins the join's row sink: rows are carved from
// blocks that double from slabMinRows to slabMaxRows rows, so a query's
// allocations grow with its row count only by one block per slabMaxRows
// rows and the growth steps of the row slices, not by an allocation per
// row.
func TestJoinRowSinkAllocs(t *testing.T) {
	const n = 512
	allocs := func(n int) float64 {
		e, q := starEngine(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Execute(context.Background(), q, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(n), allocs(8*n)
	t.Logf("allocations per query: %v for %d rows, %v for %d rows", small, n, big, 8*n)
	// 7n more rows: 7n/slabMaxRows more blocks; append grows a long slice
	// by at least 1.25x a step, and 1.25^10 > 8, so at most ten more
	// steps each for two per-row slices; a few allocations of slack. An
	// allocation per row would add 7n.
	if limit := small + 7*n/slabMaxRows + 2*10 + 4; big > limit {
		t.Errorf("allocations: %v for %d rows, %v for %d rows; want at most %v", small, n, big, 8*n, limit)
	}
}

// appendSink keeps appendGrowth's slices on the heap.
var appendSink any

// appendGrowth is how many more allocations appending 8n values of T one
// by one to a nil slice takes than appending n: the growth steps of one
// per-row slice of the collect sink.
func appendGrowth[T any](n int) float64 {
	steps := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			var s []T
			for range k {
				s = append(s, *new(T))
			}
			appendSink = s
		})
	}
	return steps(8*n) - steps(n)
}

// TestCollectBranchCarriesNoChangedFlags checks that a plain collect
// branch — no nullification, no slave filter, so no binding of an emitted
// row is ever cleared — records no per-row changed flags. Growing the star
// from n to 8n rows adds the row blocks and the growth steps of the rows
// slice; a flags slice would add its own growth steps on top.
func TestCollectBranchCarriesNoChangedFlags(t *testing.T) {
	const n = 512
	allocs := func(n int) float64 {
		e, q := starEngine(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Execute(context.Background(), q, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	grew := allocs(8*n) - allocs(n)
	rows, flags := appendGrowth[Row](n), appendGrowth[bool](n)
	if flags < 2 {
		t.Fatalf("a flags slice grows by %v allocations from %d to %d rows; too few to tell", flags, n, 8*n)
	}
	// Half the flags' steps of slack: a sink that kept the flags exceeds
	// the bound by the other half.
	if limit := float64(7*n/slabMaxRows) + rows + flags/2; grew > limit {
		t.Errorf("the star's allocations grow by %v from %d to %d rows; blocks and the rows slice account for %v, flags for %v more",
			grew, n, 8*n, limit-flags/2, flags)
	}
}

// BenchmarkJoinCollect runs the collected star-with-OPTIONAL query over
// 20 000 subjects on one worker, loads served from a warm MatCache; with
// -benchmem it shows what the join and its row sink allocate per query.
func BenchmarkJoinCollect(b *testing.B) {
	e, q := starEngine(b, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJoinScanMatchesForEach checks the join's inline loop over a
// compressed row against Row.ForEach: for sparse, RLE and empty rows, for
// ranges [lo, hi) reaching past either end, for both orientations (a row
// of the matrix binds the column variable, a column of the transpose the
// row variable), and with the join stopped after a few rows.
func TestJoinScanMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		b := bitvec.NewBits(n)
		density := []float64{0, 0.02, 0.5, 0.95}[trial%4]
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		row := bitvec.RowFromBits(b)
		lo, hi := rng.Intn(n+4)-2, rng.Intn(n+4)-2
		stopAfter := rng.Intn(6) // 0: never stop
		col := trial%2 == 1
		var want []int
		row.ForEach(func(c int) bool {
			if c >= lo && c < hi && (stopAfter == 0 || len(want) < stopAfter) {
				want = append(want, c)
			}
			return true
		})
		// One pattern, already visited, whose one variable the scan binds:
		// every visit reaches emit, which records the bound position.
		var got []int
		r := &joinRun{
			stps:     []*tpState{{rowSpace: SpaceSO, colSpace: SpaceSO}},
			rowVarID: []int{-1}, colVarID: []int{0},
			snOf:     []int{0},
			bindings: make([]Binding, 1), state: make([]uint8, 1), ownerSN: []int{-1},
			visited: []bool{true}, matched: make([]uint8, 1), nVisited: 1,
			emit: func(r *joinRun) bool {
				got = append(got, int(r.bindings[0].ID)-1)
				return stopAfter == 0 || len(got) < stopAfter
			},
		}
		if col {
			r.rowVarID, r.colVarID = []int{0}, []int{-1}
		}
		goOn := r.scan(0, 5, row, lo, hi, col)
		if !slices.Equal(got, want) {
			t.Fatalf("enc=%v n=%d [%d,%d) col=%v stop %d: scan visited %v, want %v", row.Encoding(), n, lo, hi, col, stopAfter, got, want)
		}
		if stopped := stopAfter > 0 && len(got) == stopAfter; goOn == stopped {
			t.Fatalf("enc=%v [%d,%d) stop %d after %d rows: scan reported go-on %v", row.Encoding(), lo, hi, stopAfter, len(got), goOn)
		}
		if r.state[0] != stUnbound {
			t.Fatalf("scan left its variable bound")
		}
	}
}
