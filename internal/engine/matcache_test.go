package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// testMat builds a small matrix with nRows rows and one set bit per row,
// so matCost is deterministic and nonzero.
func testMat(nRows int) *bitmat.Matrix {
	m := bitmat.NewMatrix(nRows, 8)
	for r := 0; r < nRows; r++ {
		m.SetRow(r, bitvec.RowFromSortedPositions(8, []uint32{uint32(r % 8)}))
	}
	return m
}

func TestMatCacheNilSafety(t *testing.T) {
	var c *MatCache
	if v := c.Advance(1); v != nil {
		t.Fatalf("nil cache advanced to non-nil view")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	var v *MatCacheView
	built := 0
	mat, out := v.get("p", orientSO, func() *bitmat.Matrix { built++; return testMat(1) })
	if mat != nil || out != outcomeUncached || built != 0 {
		t.Fatalf("nil view must decline without building: mat=%v out=%v built=%d", mat, out, built)
	}
	if NewMatCache(0) != nil || NewMatCache(-5) != nil {
		t.Fatalf("non-positive budget must disable the cache")
	}
}

// TestMatCacheAdmitsOnFirstTouch pins the admission rule through the
// engine's load path: a load admits its pattern on first touch whether
// or not it carries active-pruning masks, and concurrent first touches
// share one build per pattern. The query's two patterns join on ?x, so
// the tel load is masked by the mail subjects.
func TestMatCacheAdmitsOnFirstTouch(t *testing.T) {
	q, err := sparql.Parse(`SELECT * WHERE { ?x <mail> ?m . ?x <tel> ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	idx := indexOf(t, chainGraph())
	seq := New(idx, Options{Workers: 1})
	want, err := seq.Execute(context.Background(), seq.Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMatCache(1 << 20)
	e := NewWithCache(idx, Options{Workers: 1}, mc.Advance(1))
	const n = 8
	roots := make([]*trace.Span, n)
	var wg sync.WaitGroup
	for i := range roots {
		roots[i] = trace.New("query").Root()
		wg.Add(1)
		go func(sp *trace.Span) {
			defer wg.Done()
			res, err := e.Execute(context.Background(), e.Prepare(q), sp)
			if err != nil {
				t.Error(err)
				return
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
				t.Error("cached rows differ from the uncached engine")
			}
		}(roots[i])
	}
	wg.Wait()
	if s := mc.Stats(); s.Misses != 2 || s.Hits != 2*(n-1) || s.Entries != 2 || s.FirstTouches != 0 {
		t.Fatalf("stats = %+v, want one build per pattern and every other load a hit", s)
	}
	masked := false
	for _, root := range roots {
		for _, ld := range root.FindAll("load") {
			if src, _ := ld.Attr("cache"); src != string(outcomeMiss) && src != string(outcomeHit) {
				t.Fatalf("load of %v came from %v, want the cache", ld, src)
			}
			// chainGraph gives 240 subjects a tel; the mail mask keeps 80.
			// The masked clone copies only the directory entries it
			// keeps: base_rows names the cached matrix, clone_bytes the
			// copied entries, and no column mask narrows them further.
			pat, _ := ld.Attr("pattern")
			rows, _ := ld.Attr("live_rows")
			base, _ := ld.Attr("base_rows")
			cloned, _ := ld.Attr("clone_bytes")
			if pat == "?x <tel> ?t" && rows.(int) < 240 {
				masked = true
				if base != 240 {
					t.Fatalf("masked tel load: base_rows = %v, want 240", base)
				}
			}
			if cloned != dirCost(rows.(int)) || base.(int) < rows.(int) {
				t.Fatalf("load of %v: clone_bytes = %v, base_rows = %v for %v live rows", pat, cloned, base, rows)
			}
		}
	}
	if !masked {
		t.Fatal("weak fixture: no load was narrowed by its masks")
	}
}

func TestMatCacheSingleFlight(t *testing.T) {
	c := NewMatCache(1 << 20)
	view := c.Advance(1)
	var builds atomic.Int64
	var wg sync.WaitGroup
	mats := make([]*bitmat.Matrix, 16)
	for i := range mats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mat, _ := view.get("pat", orientSO, func() *bitmat.Matrix {
				builds.Add(1)
				return testMat(4)
			})
			if mat == nil {
				t.Errorf("goroutine %d: not shared", i)
			}
			mats[i] = mat
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (single-flight)", builds.Load())
	}
	for i, m := range mats {
		if m != mats[0] {
			t.Fatalf("goroutine %d got a different matrix instance", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 15 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMatCacheOrientationsAreDistinct(t *testing.T) {
	c := NewMatCache(1 << 20)
	view := c.Advance(1)
	a, _ := view.get("pat", orientSO, func() *bitmat.Matrix { return testMat(2) })
	b, _ := view.get("pat", orientOS, func() *bitmat.Matrix { return testMat(3) })
	if a == b {
		t.Fatalf("orientations shared one entry")
	}
	if s := c.Stats(); s.Entries != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMatCacheLRUEviction(t *testing.T) {
	// Every testMat(2) entry has the same matCost; the budget fits two
	// entries but not three, so inserting a third evicts the least
	// recently used.
	cost := matCost(testMat(2))
	c := NewMatCache(2 * cost)
	view := c.Advance(1)
	builds := map[string]int{}
	load := func(pat string) {
		view.get(pat, orientSO, func() *bitmat.Matrix {
			builds[pat]++
			return testMat(2)
		})
	}
	load("a")
	load("b")
	load("a") // touch a: b becomes LRU
	load("c") // evicts b
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after eviction: %+v", s)
	}
	load("b") // must rebuild
	load("a")
	if builds["b"] != 2 {
		t.Fatalf("b built %d times, want 2 (evicted then rebuilt)", builds["b"])
	}
	if builds["a"] != 1 && builds["a"] != 2 {
		t.Fatalf("a built %d times", builds["a"])
	}
}

func TestMatCacheOversizeNotRetained(t *testing.T) {
	small := matCost(testMat(1))
	c := NewMatCache(small) // budget below the big matrix's cost
	view := c.Advance(1)
	big := testMat(64)
	if matCost(big) <= small {
		t.Fatalf("fixture: big not bigger than budget")
	}
	mat, shared := view.get("big", orientSO, func() *bitmat.Matrix { return big })
	if mat != big || shared != outcomeMiss {
		t.Fatalf("oversize build not returned to caller")
	}
	s := c.Stats()
	if s.Oversize != 1 || s.Entries != 0 || s.BytesUsed != 0 {
		t.Fatalf("oversize stats = %+v", s)
	}
}

func TestMatCacheAdvanceRetiresEntries(t *testing.T) {
	c := NewMatCache(1 << 20)
	v1 := c.Advance(1)
	builds := 0
	get := func(v *MatCacheView) (*bitmat.Matrix, cacheOutcome) {
		return v.get("pat", orientSO, func() *bitmat.Matrix {
			builds++
			return testMat(2)
		})
	}
	get(v1)
	if s := c.Stats(); s.Entries != 1 || s.Generation != 1 {
		t.Fatalf("gen1 stats = %+v", s)
	}
	v2 := c.Advance(2)
	s := c.Stats()
	if s.Entries != 0 || s.Invalidations != 1 || s.BytesUsed != 0 || s.Generation != 2 {
		t.Fatalf("post-advance stats = %+v", s)
	}
	// The retired view declines (the caller then builds directly, masks
	// folded in) and must neither read nor populate the new generation's
	// cache.
	if mat, out := get(v1); mat != nil || out != outcomeStale {
		t.Fatalf("retired view did not decline")
	}
	if s := c.Stats(); s.StaleBypasses != 1 || s.Entries != 0 {
		t.Fatalf("stale bypass stats = %+v", s)
	}
	// The current view rebuilds under the new generation.
	if mat, _ := get(v2); mat == nil {
		t.Fatalf("current view not shared")
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (gen1 and gen2; the stale get declines without building)", builds)
	}
}

// TestMatCacheAdvanceDuringBuild pins the race the generation key exists
// for: a build in flight when the generation advances completes for its
// own query but is not accounted into (or reachable from) the new
// generation's cache.
func TestMatCacheAdvanceDuringBuild(t *testing.T) {
	c := NewMatCache(1 << 20)
	v1 := c.Advance(1)
	enter := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *bitmat.Matrix)
	go func() {
		mat, _ := v1.get("pat", orientSO, func() *bitmat.Matrix {
			close(enter)
			<-release
			return testMat(2)
		})
		done <- mat
	}()
	<-enter
	c.Advance(2)
	close(release)
	if mat := <-done; mat == nil {
		t.Fatalf("in-flight build lost its matrix")
	}
	s := c.Stats()
	if s.Entries != 0 || s.BytesUsed != 0 {
		t.Fatalf("orphaned build leaked into the new generation: %+v", s)
	}
}

// TestMatCacheConcurrentAdvance hammers gets against repeated generation
// advances; run under -race this pins the locking discipline, and the
// final state must be consistent (used bytes match resident entries).
func TestMatCacheConcurrentAdvance(t *testing.T) {
	c := NewMatCache(1 << 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	views := make(chan *MatCacheView, 1)
	views <- c.Advance(1)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pats := []string{"a", "b", "c", "d"}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				v := <-views
				views <- v
				mat, out := v.get(pats[(i+n)%len(pats)], orientSO, func() *bitmat.Matrix {
					return testMat(1 + n%4)
				})
				if (out == outcomeHit || out == outcomeMiss) && mat == nil {
					t.Error("shared get returned a nil matrix")
					return
				}
			}
		}(i)
	}
	for g := uint64(2); g < 30; g++ {
		v := c.Advance(g)
		<-views
		views <- v
	}
	close(stop)
	wg.Wait()
	s := c.Stats()
	if s.Entries == 0 && s.BytesUsed != 0 {
		t.Fatalf("inconsistent residency: %+v", s)
	}
	if s.BytesUsed > (1 << 16) {
		t.Fatalf("budget exceeded at rest: %+v", s)
	}
}

// TestMatCostFollowsLiveRows pins matCost to what a matrix holds: the same
// live rows cost the same over a 10^3-row and a 10^6-row dimension, and
// every added live row costs more.
func TestMatCostFollowsLiveRows(t *testing.T) {
	oneRow := func(nRows int) *bitmat.Matrix {
		m := bitmat.NewMatrix(nRows, 8)
		m.SetRow(7, bitvec.RowFromSortedPositions(8, []uint32{2, 5}))
		return m
	}
	small, big := matCost(oneRow(1_000)), matCost(oneRow(1_000_000))
	if small != big {
		t.Fatalf("matCost of one live row: %d over 10^3 rows, %d over 10^6", small, big)
	}
	if prev, next := matCost(testMat(2)), matCost(testMat(3)); next <= prev {
		t.Fatalf("matCost not monotone in live rows: %d rows=2, %d rows=3", prev, next)
	}
}

// TestCachedPristineCloneIsolation shares one MatCache entry among 16
// goroutines, each of which unfolds and rewrites its own clone: half take
// a whole clone and unfold its rows, half a clone restricted to the row
// mask (CloneRows). The cached original must stay equal to its snapshot:
// unfold compacts a matrix's row directory in place, so a clone that
// shared the directory's backing arrays would corrupt the cache. Run
// under -race.
func TestCachedPristineCloneIsolation(t *testing.T) {
	const nRows, nCols = 64, 96
	build := func() *bitmat.Matrix {
		m := bitmat.NewMatrix(nRows, nCols)
		for r := 0; r < nRows; r += 2 {
			m.SetRow(r, bitvec.RowFromSortedPositions(nCols, []uint32{uint32(r), uint32(r + 1), uint32(nCols - 1)}))
		}
		return m
	}
	snapshot := build()
	mc := NewMatCache(1 << 20)
	e := &Engine{mc: mc.Advance(1)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rowMask, colMask := bitvec.NewBits(nRows), bitvec.NewBits(nCols)
			for r := g % 4; r < nRows; r += 1 + g%3 {
				rowMask.Set(r)
			}
			for c := g; c < nCols; c += 2 {
				colMask.Set(c)
			}
			var cloneMask *bitvec.Bits
			if g%2 == 1 {
				cloneMask = rowMask
			}
			sp := trace.New("load").Root()
			m, src := e.cachedPristine("pat", orientSO, cloneMask, build, sp)
			if m == nil {
				t.Errorf("goroutine %d: cache declined (%s)", g, src)
				return
			}
			base, _ := sp.Attr("base_rows")
			cloned, _ := sp.Attr("clone_bytes")
			if base != snapshot.LiveRows() || cloned != dirCost(m.LiveRows()) {
				t.Errorf("goroutine %d: base_rows = %v, clone_bytes = %v for %d cloned rows", g, base, cloned, m.LiveRows())
			}
			if cloneMask == nil {
				m.UnfoldRows(rowMask)
			}
			m.UnfoldCols(colMask)
			m.SetRow(1, bitvec.RowFromSortedPositions(nCols, []uint32{uint32(g)}))
			m.SetRow(nRows-2, nil)
			want := snapshot.Clone()
			want.UnfoldRows(rowMask)
			want.UnfoldCols(colMask)
			want.SetRow(1, bitvec.RowFromSortedPositions(nCols, []uint32{uint32(g)}))
			want.SetRow(nRows-2, nil)
			if !m.Equal(want) {
				t.Errorf("goroutine %d: pruned clone differs from the pruned snapshot", g)
			}
		}(g)
	}
	wg.Wait()
	cached, out := e.mc.get("pat", orientSO, build)
	if out != outcomeHit {
		t.Fatalf("shared entry not served from the cache: %s", out)
	}
	if !cached.Equal(snapshot) {
		t.Fatal("pruning clones changed the cached matrix")
	}
	if s := mc.Stats(); s.Misses != 1 {
		t.Fatalf("stats = %+v, want one build", s)
	}
}
