package lbr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// goldenIndexSHA256 is the SHA-256 of the SaveIndex bytes of
// goldenFixture. The snapshot is a pure function of the triple set, so
// any change to the build, the dictionary layout or the persist format
// that moves one byte shows here; a deliberate format change updates it
// together with storeMagic.
const goldenIndexSHA256 = "ffce1e2e16d4c4b898d366ad3738995dcb3f89eea00370b87f1acddc8335f1fa"

// goldenFixture is MovieGraph(200) plus literals that exercise every
// N-Triples escape, language tags, datatypes and blank nodes.
func goldenFixture() []Triple {
	triples := append([]Triple(nil), datagen.MovieGraph(200).Triples()...)
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("doc%d", i%9)
		triples = append(triples,
			TripleLit(s, "note", fmt.Sprintf("say \"%d\"\tand \\%d\\\nend\r", i, i)),
			Triple{S: IRI(s), P: IRI("title"), O: Term{Kind: rdf.Literal, Value: fmt.Sprintf("t%d", i%5), Lang: "en"}},
			Triple{S: rdf.NewBlank(fmt.Sprintf("b%d", i%7)), P: IRI("size"),
				O: Term{Kind: rdf.Literal, Value: fmt.Sprint(i), Datatype: "http://www.w3.org/2001/XMLSchema#integer"}},
			TripleIRI(s, "ref", fmt.Sprintf("doc%d", (i+1)%9)))
	}
	return triples
}

func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func snapshot(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveIndexGoldenDigest pins the snapshot of a fixed input to a
// constant, with the triples reaching the store both through AddAll and
// through LoadNTriples.
func TestSaveIndexGoldenDigest(t *testing.T) {
	triples := goldenFixture()
	added := NewStore()
	added.AddAll(triples)
	g := rdf.NewGraph()
	g.AddAll(triples)
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, g); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	if _, err := loaded.LoadNTriples(&nt); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"AddAll": added, "LoadNTriples": loaded} {
		sum := sha256.Sum256(snapshot(t, s))
		if got := hex.EncodeToString(sum[:]); got != goldenIndexSHA256 {
			t.Errorf("%s: SaveIndex digest %s, want %s", name, got, goldenIndexSHA256)
		}
	}
}

// TestLoadNTriplesParseError pins the failure path of a load: a malformed
// line k fails the whole load with an error naming line k (blank and
// comment lines count), adds nothing, and writes nothing to an open WAL.
func TestLoadNTriplesParseError(t *testing.T) {
	for _, n := range []int{3, 3000} {
		var sb strings.Builder
		sb.WriteString("# fixture\n\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<http://x/s%d> <http://x/p%d> \"v \\\"%d\\\"\"@en .\n", i%301, i%9, i)
		}
		badLine := n + 3
		sb.WriteString("not a triple\n<http://x/a> <http://x/p> <http://x/b> .\n")

		s := NewStore()
		walPath := filepath.Join(t.TempDir(), "updates.wal")
		if _, err := s.OpenWAL(walPath); err != nil {
			t.Fatal(err)
		}
		added, err := s.LoadNTriples(strings.NewReader(sb.String()))
		if want := fmt.Sprintf("line %d:", badLine); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d lines: err = %v, want one naming %q", n, err, want)
		}
		if added != 0 || s.Len() != 0 {
			t.Fatalf("%d lines: failed load added %d triples (Len %d)", n, added, s.Len())
		}
		if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
			t.Fatalf("%d lines: WAL after a failed load: %v, err %v", n, fi, err)
		}
		if err := s.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEscapedLiteralSaveOpenRoundTrip pins the snapshot round-trip for
// literals with quotes, backslashes, newlines, tabs, language tags, and
// datatypes — the characters the N-Triples writer must escape.
func TestEscapedLiteralSaveOpenRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(TripleLit("doc1", "quote", `she said "hi"`))
	s.Add(TripleLit("doc1", "path", `C:\temp\file`))
	s.Add(TripleLit("doc2", "multi", "line one\nline two\ttabbed"))
	s.Add(TripleIRI("doc1", "ref", "doc2"))
	snap := snapshot(t, s)

	s2, err := OpenIndex(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("reloaded %d triples, want %d", s2.Len(), s.Len())
	}
	// OpenIndex reconstructs the graph in index (per-predicate) order, so
	// compare the statements as sets.
	var a, b bytes.Buffer
	if err := s.WriteNTriples(&a); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteNTriples(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedLines(b.String()), sortedLines(a.String()); got != want {
		t.Fatalf("N-Triples round-trip differs:\n%s\nvs\n%s", got, want)
	}
	res, err := s2.Query(`SELECT * WHERE { <doc2> <multi> ?v . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0].Value != "line one\nline two\ttabbed" {
		t.Fatalf("escaped literal query = %v", res)
	}
	// The snapshot of the reloaded store must be byte-identical too.
	if got := snapshot(t, s2); !bytes.Equal(got, snap) {
		t.Fatal("re-saved snapshot differs from original")
	}
}

// TestFullScanAgainstStoreAndReloadedIndex is the acceptance-criteria pin
// for the dump query: every triple comes back, sequential and parallel,
// on the live store and on a reloaded snapshot.
func TestFullScanAgainstStoreAndReloadedIndex(t *testing.T) {
	g := datagen.MovieGraph(200)
	for _, workers := range []int{1, 4} {
		s := NewStoreWithOptions(Options{Workers: workers})
		s.LoadGraph(g)
		res, err := s.Query(`SELECT * WHERE { ?s ?p ?o . }`)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Len() != s.Len() {
			t.Fatalf("workers=%d: full scan %d rows, want Len()=%d", workers, res.Len(), s.Len())
		}
		// Row content must match the serialized graph exactly.
		want := map[string]bool{}
		var nt bytes.Buffer
		if err := s.WriteNTriples(&nt); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(nt.String()), "\n") {
			want[strings.TrimSuffix(line, " .")] = true
		}
		res.Iterate(func(m map[string]Term) bool {
			k := m["s"].String() + " " + m["p"].String() + " " + m["o"].String()
			if !want[k] {
				t.Errorf("workers=%d: row %s not in graph", workers, k)
			}
			delete(want, k)
			return true
		})
		if len(want) != 0 {
			t.Fatalf("workers=%d: %d triples missing from full scan", workers, len(want))
		}

		ok, err := s.Ask(`ASK { ?s ?p ?o . }`)
		if err != nil || !ok {
			t.Fatalf("workers=%d: ASK dump = %v/%v", workers, ok, err)
		}

		// Reload from the snapshot and repeat the count check.
		s2, err := OpenIndexWithOptions(bytes.NewReader(snapshot(t, s)), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := s2.Query(`SELECT * WHERE { ?s ?p ?o . }`)
		if err != nil {
			t.Fatalf("workers=%d reloaded: %v", workers, err)
		}
		if res2.Len() != s.Len() {
			t.Fatalf("workers=%d reloaded: %d rows, want %d", workers, res2.Len(), s.Len())
		}
	}
}

// TestWorkersNegativeTreatedAsOne pins the documented normalization.
func TestWorkersNegativeTreatedAsOne(t *testing.T) {
	if got := (Options{Workers: -3}).EffectiveWorkers(); got != 1 {
		t.Fatalf("Workers=-3 resolves to %d, want 1", got)
	}
	if got := (Options{Workers: 5}).EffectiveWorkers(); got != 5 {
		t.Fatalf("Workers=5 resolves to %d, want 5", got)
	}
	if got := (Options{}).EffectiveWorkers(); got < 1 {
		t.Fatalf("Workers=0 resolves to %d, want GOMAXPROCS >= 1", got)
	}
	// A negative count must behave exactly like the sequential store.
	var want string
	for _, workers := range []int{1, -7} {
		s := NewStoreWithOptions(Options{Workers: workers})
		s.LoadGraph(datagen.MovieGraph(50))
		res, err := s.Query(`SELECT * WHERE { ?s <http://example.org/actedIn> ?o . }`)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = res.String()
			continue
		}
		if res.String() != want {
			t.Fatalf("workers=%d differs from sequential", workers)
		}
	}
}

// TestQueryStreamContextCancelled pins that a cancelled context aborts
// the stream with context.Canceled instead of burning the full scan.
func TestQueryStreamContextCancelled(t *testing.T) {
	s := NewStore()
	s.LoadGraph(datagen.MovieGraph(2000))
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := streamMaps(ctx, s, `SELECT * WHERE { ?s ?p ?o . }`, func(map[string]Term) bool {
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Mid-stream cancellation: stop the context after a few rows and
	// expect the error once the next check fires.
	ctx2, cancel2 := context.WithCancel(context.Background())
	n := 0
	err = streamMaps(ctx2, s, `SELECT * WHERE { ?s ?p ?o . }`, func(map[string]Term) bool {
		n++
		if n == 3 {
			cancel2()
		}
		return true
	})
	cancel2()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream err = %v", err)
	}
	if err == nil && n >= s.Len() {
		t.Fatalf("stream ran to completion (%d rows) despite cancellation", n)
	}
}

// loadFixtureText renders triples as N-Triples input for LoadNTriples,
// with a comment, blank lines and irregular spacing between statements.
func loadFixtureText(triples []Triple) string {
	var sb strings.Builder
	sb.WriteString("# load fixture\n\n")
	for i, t := range triples {
		if i%11 == 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(t.String())
		sb.WriteString(" .\n")
	}
	return sb.String()
}

// TestLoadNTriplesBulkEquivalence pins the first-build load against the
// AddAll-then-Build path on an unbuilt store that already holds a few
// added triples: the load input repeats lines, repeats the earlier adds,
// and carries escaped, language-tagged and typed literals and blank
// nodes. The returned count, Len, the SaveIndex bytes and the WAL record
// set must agree, and replaying the load's WAL into a fresh store must
// give the same snapshot.
func TestLoadNTriplesBulkEquivalence(t *testing.T) {
	all := goldenFixture()
	pre := append([]Triple{TripleIRI("only-added", "p", "o")}, all[:6]...)
	input := append(append(append([]Triple(nil), all...), all[:50]...), all[3:4]...)

	dir := t.TempDir()
	open := func(name string) *Store {
		s := NewStore()
		if _, err := s.OpenWAL(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		for _, tr := range pre {
			s.Add(tr)
		}
		return s
	}
	loaded := open("load.wal")
	n, err := loaded.LoadNTriples(strings.NewReader(loadFixtureText(input)))
	if err != nil {
		t.Fatal(err)
	}
	added := open("add.wal")
	want := added.AddAll(input)
	if err := added.Build(); err != nil {
		t.Fatal(err)
	}
	if n != want || loaded.Len() != added.Len() {
		t.Fatalf("load added %d (Len %d), AddAll added %d (Len %d)", n, loaded.Len(), want, added.Len())
	}
	if loaded.Built() {
		t.Fatal("the load must leave the query snapshot to the next Build or query")
	}
	// Detach the logs first: SaveIndex checkpoints (empties) an attached
	// WAL.
	for _, s := range []*Store{loaded, added} {
		if err := s.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	walOf := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return sortedLines(string(b))
	}
	if got, want := walOf("load.wal"), walOf("add.wal"); got != want {
		t.Fatalf("WAL record sets differ:\nload:\n%s\nAddAll:\n%s", got, want)
	}
	if got := strings.Count(walOf("load.wal"), "\n") + 1; got != len(pre)+n {
		t.Fatalf("load WAL holds %d records, want %d", got, len(pre)+n)
	}
	wantSnap := snapshot(t, added)
	if !bytes.Equal(snapshot(t, loaded), wantSnap) {
		t.Fatal("SaveIndex bytes of the loaded store differ from the AddAll-then-Build store")
	}
	replayed := NewStore()
	if _, err := replayed.OpenWAL(filepath.Join(dir, "load.wal")); err != nil {
		t.Fatal(err)
	}
	defer replayed.CloseWAL()
	if !bytes.Equal(snapshot(t, replayed), wantSnap) {
		t.Fatal("replaying the load's WAL gives a different snapshot")
	}
	if got := replayed.WALStats().Replayed; got != int64(len(pre)+n) {
		t.Fatalf("replayed %d WAL entries, want %d", got, len(pre)+n)
	}
	if loaded.WALStats().LoadLastMS <= 0 {
		t.Fatal("LoadLastMS not recorded")
	}
}

// TestLoadNTriplesConcurrent races a first-build load against Add, a
// lazily building Query and Build on an unbuilt store. The iterations
// cycle through three orders — all at once; the load after half the adds
// and before any build; the load after Build — with the remaining calls
// racing each time. Whichever goroutine builds first, no triple is lost:
// the final Len and a full-scan result equal a sequential oracle's.
func TestLoadNTriplesConcurrent(t *testing.T) {
	all := goldenFixture()
	text := loadFixtureText(all[:300])
	extra := all[250:]
	oracle := NewStore()
	oracle.AddAll(all)
	const dump = `SELECT * WHERE { ?s ?p ?o . }`
	wantRes, err := oracle.Query(dump)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedLines(wantRes.String())
	for iter := 0; iter < 9; iter++ {
		s := NewStore()
		start, halfAdded, loaded, built := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
		loadGate, buildGate := start, start
		switch iter % 3 {
		case 1:
			loadGate, buildGate = halfAdded, loaded
		case 2:
			loadGate = built
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		run := func(gate, done chan struct{}, f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				if err := f(); err != nil {
					errs <- err
				}
				if done != nil {
					close(done)
				}
			}()
		}
		run(loadGate, loaded, func() error {
			_, err := s.LoadNTriples(strings.NewReader(text))
			return err
		})
		run(start, nil, func() error {
			for i, tr := range extra {
				if i == len(extra)/2 {
					close(halfAdded)
				}
				s.Add(tr)
			}
			return nil
		})
		run(buildGate, nil, func() error {
			_, err := s.Query(`SELECT * WHERE { ?s <title> ?o . }`)
			return err
		})
		run(buildGate, built, s.Build)
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if s.Len() != oracle.Len() {
			t.Fatalf("iteration %d: Len %d, want %d", iter, s.Len(), oracle.Len())
		}
		res, err := s.Query(dump)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedLines(res.String()); got != want {
			t.Fatalf("iteration %d: full scan differs from the sequential oracle", iter)
		}
	}
}
