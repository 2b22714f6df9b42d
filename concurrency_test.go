package lbr

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// seedStore returns a store with a small social graph and a query that
// exercises an OPTIONAL pattern against it.
func seedStore() (*Store, string) {
	s := NewStore()
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("p%02d", i)
		s.Add(TripleIRI(p, "knows", fmt.Sprintf("p%02d", (i+1)%40)))
		if i%2 == 0 {
			s.Add(TripleLit(p, "mail", "m-"+p))
		}
	}
	q := `SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }`
	return s, q
}

// TestConcurrentQueriesDuringMutation drives N reader goroutines through
// Query/Ask/Explain while a writer keeps Adding triples and rebuilding.
// Run with -race: the store must never let a query observe a half-built
// index or two goroutines build one concurrently.
func TestConcurrentQueriesDuringMutation(t *testing.T) {
	s, q := seedStore()
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const mutations = 60
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					if _, err := s.Query(q); err != nil {
						errs <- fmt.Errorf("reader %d query: %w", r, err)
						return
					}
				case 1:
					if _, err := s.Ask(`ASK { ?x <knows> ?y . }`); err != nil {
						errs <- fmt.Errorf("reader %d ask: %w", r, err)
						return
					}
				default:
					if _, err := s.Explain(q); err != nil {
						errs <- fmt.Errorf("reader %d explain: %w", r, err)
						return
					}
				}
			}
		}(r)
	}

	for i := 0; i < mutations; i++ {
		s.Add(TripleIRI(fmt.Sprintf("new%03d", i), "knows", "p00"))
		if i%10 == 9 {
			if err := s.Build(); err != nil {
				t.Errorf("rebuild %d: %v", i, err)
			}
		}
		// Interleave reads from the writer too: lazy rebuild path.
		if i%7 == 3 {
			if _, err := s.Query(q); err != nil {
				t.Errorf("writer query %d: %v", i, err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles a final query must see every mutation.
	res, err := s.Query(`SELECT * WHERE { ?x <knows> <p00> . }`)
	if err != nil {
		t.Fatal(err)
	}
	// p39 knows p00 from the seed ring, plus the 60 new subjects.
	if res.Len() != mutations+1 {
		t.Fatalf("after mutations: %d rows, want %d", res.Len(), mutations+1)
	}
}

// TestLazyBuildSingleFlight hammers an unbuilt store with concurrent
// queries: every one must succeed against exactly one lazily built index
// (the -race run would flag concurrent builds of the old code).
func TestLazyBuildSingleFlight(t *testing.T) {
	s, q := seedStore()
	if s.Built() {
		t.Fatal("store must start unbuilt")
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Query(q)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.Len()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("query %d saw %d rows, query 0 saw %d", i, results[i], results[0])
		}
	}
	if !s.Built() {
		t.Error("store must be built after lazy-build queries")
	}
}

// TestWorkersOptionEndToEnd runs the same query at several worker counts
// through the public API and checks identical materialized results.
func TestWorkersOptionEndToEnd(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		s := NewStoreWithOptions(Options{Workers: workers})
		for i := 0; i < 40; i++ {
			p := fmt.Sprintf("p%02d", i)
			s.Add(TripleIRI(p, "knows", fmt.Sprintf("p%02d", (i+1)%40)))
			if i%2 == 0 {
				s.Add(TripleLit(p, "mail", "m-"+p))
			}
		}
		res, err := s.Query(`SELECT * WHERE { ?x <knows> ?y . OPTIONAL { ?x <mail> ?m . } }`)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d result differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestReadsDoNotWaitForWriter holds the store's write lock, as a writer
// in the middle of an update does, and requires every read entry point to
// return anyway: reads load the published snapshot and take no lock a
// writer holds. With the lock released it checks read-your-writes: once
// ApplyUpdate returns generation g, SnapshotGeneration is at least g and a
// query sees the insert.
func TestReadsDoNotWaitForWriter(t *testing.T) {
	s, q := seedStore()
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	reads := []struct {
		name string
		run  func() error
	}{
		{"Query", func() error {
			res, err := s.Query(q)
			if err == nil && res.String() != want.String() {
				err = fmt.Errorf("rows differ from the unlocked run")
			}
			return err
		}},
		{"QueryStreamRowsObserved", func() error {
			var st Stats
			return s.QueryStreamRowsObserved(context.Background(), q, &st, nil, func([]string, []Term) bool { return true })
		}},
		{"Ask", func() error {
			ok, err := s.Ask(`ASK { ?x <knows> ?y . }`)
			if err == nil && !ok {
				err = fmt.Errorf("ASK found no solution")
			}
			return err
		}},
		{"QueryTrace", func() error {
			_, _, err := s.QueryTrace(context.Background(), q)
			return err
		}},
		{"SnapshotGeneration", func() error {
			g, err := s.SnapshotGeneration()
			if err == nil && g != gen {
				err = fmt.Errorf("generation %d, want %d", g, gen)
			}
			return err
		}},
		{"Generation", func() error {
			if g := s.Generation(); g != gen {
				return fmt.Errorf("generation %d, want %d", g, gen)
			}
			return nil
		}},
		{"Built", func() error {
			if !s.Built() {
				return fmt.Errorf("built store reports unbuilt")
			}
			return nil
		}},
	}
	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	for _, r := range reads {
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s under the write lock: %v", r.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s waited for the write lock", r.name)
		}
	}
	s.mu.Unlock()
	locked = false

	up, err := s.ApplyUpdate(`INSERT DATA { <p00> <mail> "m-new" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := s.SnapshotGeneration(); err != nil || g < up.Generation {
		t.Fatalf("SnapshotGeneration = %d, %v after an update reported %d", g, err, up.Generation)
	}
	res, err := s.Query(`SELECT ?m WHERE { <p00> <mail> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("query after the update: %d rows, want 2\n%s", res.Len(), res)
	}
}

// TestSnapshotSpanMatchesQueryView races traced queries against a writer
// that inserts one <x> <p> "i" per update, so every generation past the
// start adds exactly one row to SELECT ?o { <x> <p> ?o }. The "snapshot"
// span must describe the snapshot the query ran on: its row count equals
// the span's generation minus the starting generation. Run with -race.
func TestSnapshotSpanMatchesQueryView(t *testing.T) {
	s, _ := seedStore()
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	start := s.Generation()
	const updates = 60
	const q = `SELECT ?o WHERE { <x> <p> ?o . }`
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < updates; i++ {
			if _, err := s.ApplyUpdate(fmt.Sprintf(`INSERT DATA { <x> <p> "%d" . }`, i)); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	const readers = 2
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, root, err := s.QueryTrace(context.Background(), q)
				if err != nil {
					t.Errorf("traced query: %v", err)
					return
				}
				sp := root.Find("snapshot")
				if sp == nil {
					t.Error("trace lacks the snapshot span")
					return
				}
				g, _ := sp.Attr("generation")
				gen, ok := g.(uint64)
				if !ok {
					t.Errorf("snapshot generation attr = %#v", g)
					return
				}
				want := int(gen - start)
				if res.Len() != want {
					t.Errorf("span generation %d (start %d) but %d rows, want %d", gen, start, res.Len(), want)
					return
				}
				if d, _ := sp.Attr("delta"); d != want {
					t.Errorf("span delta %v, want %d", d, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
