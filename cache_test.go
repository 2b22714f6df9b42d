package lbr

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// cacheStore builds a graph big enough that several query shapes share
// triple patterns, so the cross-query materialization cache has something
// to share.
func cacheStore(opts Options) *Store {
	s := NewStoreWithOptions(opts)
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("p%02d", i)
		s.Add(TripleIRI(p, "knows", fmt.Sprintf("p%02d", (i*7+1)%60)))
		s.Add(TripleIRI(p, "type", "Person"))
		if i%2 == 0 {
			s.Add(TripleLit(p, "mail", "m-"+p))
		}
		if i%3 != 0 {
			s.Add(TripleLit(p, "tel", "t-"+p))
		}
	}
	return s
}

// cacheQueries share the <knows> and <mail> patterns across distinct
// query shapes — the repeat-subpattern workload the store cache exists
// for.
var cacheQueries = []string{
	`SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }`,
	`SELECT * WHERE { ?x <knows> ?y . ?y <knows> ?z . }`,
	`SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?y <tel> ?t . } }`,
	`SELECT * WHERE { ?x <mail> ?m . OPTIONAL { ?x <knows> ?y . } }`,
}

func TestEffectiveCacheBudget(t *testing.T) {
	cases := []struct {
		in   int64
		want int64
	}{
		{0, 64 << 20},
		{1 << 10, 1 << 10},
		{-1, 0},
	}
	for _, c := range cases {
		if got := (Options{CacheBudget: c.in}).EffectiveCacheBudget(); got != c.want {
			t.Errorf("EffectiveCacheBudget(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestCrossQueryCacheConcurrentDifferential is the PR's -race harness: N
// goroutines issue overlapping queries against one Store; every result
// must be byte-identical to a cold-cache sequential run, and the
// single-flight sharing must be observable — the cache builds each
// pattern far fewer times than queries run.
func TestCrossQueryCacheConcurrentDifferential(t *testing.T) {
	// Cold reference: a cache-disabled store answers each query once,
	// sequentially.
	cold := cacheStore(Options{Workers: 1, CacheBudget: -1})
	expected := make([]string, len(cacheQueries))
	for i, q := range cacheQueries {
		res, err := cold.Query(q)
		if err != nil {
			t.Fatalf("cold %q: %v", q, err)
		}
		expected[i] = res.String()
	}
	if st := cold.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}

	shared := cacheStore(Options{Workers: 2})
	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(cacheQueries)
				res, err := shared.Query(cacheQueries[qi])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if got := res.String(); got != expected[qi] {
					errs <- fmt.Errorf("goroutine %d iter %d query %d: rows differ from cold sequential run\ngot:  %q\nwant: %q",
						g, it, qi, got, expected[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := shared.CacheStats()
	totalQueries := goroutines * iters
	if st.Hits == 0 {
		t.Fatalf("no cache hits across %d overlapping queries: %+v", totalQueries, st)
	}
	// Single-flight observability: every miss is one pattern build; with
	// each query loading >= 2 patterns, per-query building would mean
	// >= 2*totalQueries builds. The cache must do far fewer — at most one
	// per distinct (pattern, orientation), i.e. fewer than the query count.
	if st.Misses >= int64(totalQueries) {
		t.Fatalf("build count %d not smaller than query count %d: %+v", st.Misses, totalQueries, st)
	}
	if st.Generation != 1 || st.Invalidations != 0 {
		t.Fatalf("unexpected generation churn without writes: %+v", st)
	}
}

// TestCacheInvalidationStaleReadPin interleaves writes and rebuilds with
// cached queries: after every Build the store must answer exactly like a
// cold store holding the same triples — a single row served from a
// retired generation's matrix would miss the just-added data and fail the
// byte comparison. The generation counter and invalidation counts are
// asserted alongside.
func TestCacheInvalidationStaleReadPin(t *testing.T) {
	q := `SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }`
	s := NewStoreWithOptions(Options{Workers: 2})
	coldTriples := func(n int) *Store {
		c := NewStoreWithOptions(Options{CacheBudget: -1})
		for i := 0; i < n; i++ {
			c.Add(TripleIRI(fmt.Sprintf("e%d", i), "knows", fmt.Sprintf("e%d", i+1)))
			if i%2 == 0 {
				c.Add(TripleLit(fmt.Sprintf("e%d", i), "mail", fmt.Sprintf("m%d", i)))
			}
		}
		return c
	}
	var lastGen uint64
	for gen := 1; gen <= 8; gen++ {
		i := gen - 1
		s.Add(TripleIRI(fmt.Sprintf("e%d", i), "knows", fmt.Sprintf("e%d", i+1)))
		if i%2 == 0 {
			s.Add(TripleLit(fmt.Sprintf("e%d", i), "mail", fmt.Sprintf("m%d", i)))
		}
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
		// Query twice: the first populates this generation's cache, the
		// second must hit it — so from generation 2 on, any failure to
		// retire the previous generation's matrices would serve stale rows
		// here.
		var got string
		for pass := 0; pass < 2; pass++ {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got = res.String()
		}
		coldRes, err := coldTriples(gen).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := coldRes.String(); got != want {
			t.Fatalf("generation %d: cached store diverges from cold store\ngot:  %q\nwant: %q", gen, got, want)
		}
		st := s.CacheStats()
		if st.Generation <= lastGen {
			t.Fatalf("generation did not advance after Build: %+v (last %d)", st, lastGen)
		}
		lastGen = st.Generation
		if gen >= 2 && st.Invalidations == 0 {
			t.Fatalf("rebuild retired no entries by generation %d: %+v", gen, st)
		}
		if st.Hits == 0 {
			t.Fatalf("second pass did not hit the cache at generation %d: %+v", gen, st)
		}
	}
}

// TestCacheInvalidationConcurrentWriters races queries against a writer
// that keeps adding triples and rebuilding. Every result must equal the
// result over some prefix of the writer's batches (the store's documented
// pre-or-post-mutation semantics); after the writer finishes, a final
// query must see everything. Run with -race.
func TestCacheInvalidationConcurrentWriters(t *testing.T) {
	const batches = 6
	q := `SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }`
	batch := func(g int) []Triple {
		return []Triple{
			TripleIRI(fmt.Sprintf("w%d", g), "knows", fmt.Sprintf("w%d", g+1)),
			TripleLit(fmt.Sprintf("w%d", g), "mail", fmt.Sprintf("m%d", g)),
		}
	}
	// Legal results: for each prefix of applied batches, both snapshot
	// renderings a reader can observe — the freshly built index (after the
	// writer's Build) and the delta overlay (after AddAll, before Build),
	// whose base is the previous prefix. Row sets match; enumeration order
	// may differ because the overlay appends new terms to the dictionary.
	legal := map[string]int{}
	record := func(st *Store, g int) {
		res, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		legal[res.String()] = g
	}
	for g := 0; g < batches; g++ {
		fresh := NewStoreWithOptions(Options{CacheBudget: -1})
		for h := 0; h <= g; h++ {
			fresh.AddAll(batch(h))
		}
		if err := fresh.Build(); err != nil {
			t.Fatal(err)
		}
		record(fresh, g)
		if g > 0 {
			ov := NewStoreWithOptions(Options{CacheBudget: -1})
			for h := 0; h < g; h++ {
				ov.AddAll(batch(h))
			}
			if err := ov.Build(); err != nil {
				t.Fatal(err)
			}
			ov.AddAll(batch(g))
			record(ov, g)
		}
	}

	s := NewStoreWithOptions(Options{Workers: 2})
	s.AddAll(batch(0))
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.Query(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if _, ok := legal[res.String()]; !ok {
					errs <- fmt.Errorf("reader %d iter %d: result matches no consistent snapshot:\n%s", r, i, res.String())
					return
				}
			}
		}(r)
	}
	for g := 1; g < batches; g++ {
		s.AddAll(batch(g))
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Quiescent: the final snapshot must serve the full data — twice, so
	// the second answer comes through the final generation's cache.
	for pass := 0; pass < 2; pass++ {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := legal[res.String()]; !ok || g != batches-1 {
			t.Fatalf("pass %d: final result is not the full dataset (prefix %d, ok=%v)", pass, g, ok)
		}
	}
}

// TestUnionBranchesShareThroughMatCache pins that the MatCache is what
// shares a pattern recurring across the UNF branches of one query. The
// ?s ?p ?o scan expands into one branch per predicate, each carrying its
// own clone of ?s <name> ?n. The branches run in order, so the first
// load of the shared pattern may be a first touch (a masked load) and the
// next one a store miss; every later branch must then hit the entry.
// Rows stay byte-identical with the cache disabled and at every worker
// count.
func TestUnionBranchesShareThroughMatCache(t *testing.T) {
	const q = `SELECT * WHERE { ?s ?p ?o . ?s <name> ?n }`
	const shared = "?s <name> ?n"
	build := func(opts Options) *Store {
		s := NewStoreWithOptions(opts)
		for i := 0; i < 40; i++ {
			subj := fmt.Sprintf("s%02d", i)
			s.Add(TripleLit(subj, "name", "n-"+subj))
			for p := 0; p < 8; p++ {
				if (i+p)%3 != 0 {
					s.Add(TripleIRI(subj, fmt.Sprintf("p%d", p), fmt.Sprintf("o%02d", (i*p+1)%40)))
				}
			}
		}
		return s
	}
	cold, err := build(Options{Workers: 1, CacheBudget: -1}).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Rows()) == 0 {
		t.Fatal("weak fixture: no rows")
	}
	for _, workers := range []int{1, 8} {
		s := build(Options{Workers: workers})
		res, root, err := s.QueryTrace(context.Background(), q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.String() != cold.String() {
			t.Fatalf("workers=%d: rows differ from the cache-disabled run\ngot:\n%s\nwant:\n%s", workers, res, cold)
		}
		if n := len(root.FindAll("branch")); n < 9 {
			t.Fatalf("workers=%d: %d branches, want one per predicate (9)", workers, n)
		}
		outcomes := map[string]int{}
		for _, ld := range root.FindAll("load") {
			if pat, _ := ld.Attr("pattern"); pat == shared {
				src, _ := ld.Attr("cache")
				outcomes[src.(string)]++
			}
		}
		loads := 0
		for _, n := range outcomes {
			loads += n
		}
		if loads < 9 || outcomes["store-miss"] > 1 || outcomes["first-touch"] > 1 ||
			outcomes["store-hit"] != loads-outcomes["store-miss"]-outcomes["first-touch"] {
			t.Fatalf("workers=%d: %d loads of %s, outcomes %v; want at most one store-miss and one first-touch, the rest store-hit",
				workers, loads, shared, outcomes)
		}
	}
}
