package lbr

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// resultLifetimeQuery reads every column kind of the route suite's data:
// a master, an OPTIONAL that stays NULL on half the rows, and a variable
// in a predicate position.
const resultLifetimeQuery = `SELECT * WHERE { ?s <type> ?c . OPTIONAL { ?s <email> ?e } OPTIONAL { ?s ?p <class0> } }`

// sortedRendering renders a result's rows one per line, sorted.
func sortedRendering(res *Result) string {
	lines := make([]string, res.Len())
	for i := range lines {
		lines[i] = fmt.Sprint(res.Row(i))
	}
	slices.Sort(lines)
	return fmt.Sprint(lines)
}

// TestResultLifetimeAcrossUpdateAndCompact pins that a Result resolves to
// the rows of the snapshot it ran on, however late it is first read. One
// result is taken on the built index and one on the delta overlay after
// an update; neither is read until an update has added terms that sort
// before every old one and a compaction has renumbered the dictionary.
// The first then renders exactly like its twin read at once, and the
// second holds the rows of a query run after the compaction.
func TestResultLifetimeAcrossUpdateAndCompact(t *testing.T) {
	s := newRouteTestStore(t, 2)
	read, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := read.String()
	before, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`DELETE DATA { <s0> <type> <class0> . <s2> <email> <m2> } ;
		INSERT DATA { <a0> <type> <class0> . <a0> <email> <a1> . <a1> <type> <class1> }`); err != nil {
		t.Fatal(err)
	}
	overlay, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := before.String(); got != want {
		t.Errorf("a result read after an update and a compaction renders\n%s\nwant, as read at once,\n%s", got, want)
	}
	after, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRendering(overlay), sortedRendering(after); got != want {
		t.Errorf("a result taken on the overlay and read after the compaction holds\n%s\nwant the compacted store's\n%s", got, want)
	}
	if sortedRendering(overlay) == sortedRendering(read) {
		t.Error("the update changed no row of the query; the test proves nothing")
	}
}

// TestResultLifetimeConcurrentReads reads one unresolved Result from
// several goroutines at once, through every accessor that resolves it:
// each must see the rows of a twin result, and -race must stay quiet.
func TestResultLifetimeConcurrentReads(t *testing.T) {
	s := newRouteTestStore(t, 2)
	twin, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := twin.Rows()
	res, err := s.Query(resultLifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got [][]Term
			if g%2 == 0 {
				got = res.Rows()
				got[0][0] = Term{} // the caller's copy: the result must not see it
			} else {
				for i := range res.Len() {
					got = append(got, res.Row(i))
				}
			}
			for i := range want {
				if i == 0 && g%2 == 0 {
					continue
				}
				if !slices.Equal(got[i], want[i]) {
					errs <- fmt.Sprintf("goroutine %d: row %d = %v, want %v", g, i, got[i], want[i])
					return
				}
			}
			if res.String() != twin.String() {
				errs <- fmt.Sprintf("goroutine %d: String differs from the twin's", g)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !slices.Equal(res.Row(0), want[0]) {
		t.Errorf("row 0 = %v after a caller modified its copy from Rows, want %v", res.Row(0), want[0])
	}
}
