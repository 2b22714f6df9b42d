package lbr

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestSaveOpenIndexRoundTrip(t *testing.T) {
	s := movieStore(t)
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("reloaded store has %d triples, want %d", s2.Len(), s.Len())
	}
	res, err := s2.Query(movieQ2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("reloaded store gives %d results, want 2", res.Len())
	}
	// Stats read the loaded index's dictionary.
	if st, err := s2.Stats(); err != nil || st.Predicates != 3 {
		t.Errorf("reloaded stats = %+v, %v", st, err)
	}
}

func TestSaveIndexAutoBuilds(t *testing.T) {
	s := NewStore()
	s.Add(TripleIRI("a", "p", "b"))
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing written")
	}
}

func TestOpenIndexRejectsGarbage(t *testing.T) {
	if _, err := OpenIndex(bytes.NewReader([]byte("not a store"))); err == nil {
		t.Error("garbage input must be rejected")
	}
	// A truncated valid prefix must also fail cleanly.
	s := movieStore(t)
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Error("truncated snapshot must be rejected")
	}
}

// TestOpenIndexRejectsOldFormat feeds OpenIndex the snapshot an empty
// store saved in the earlier format, with separate S and O spaces: the
// store magic "LBRSTOR1", dictionary magic "LBRDICT1" and four u32
// counts, index magic "LBRIDX1\n" and three u32 dimensions plus a u64
// triple count. It must fail with ErrSnapshotVersion, not be misread.
func TestOpenIndexRejectsOldFormat(t *testing.T) {
	var old bytes.Buffer
	old.WriteString("LBRSTOR1LBRDICT1")
	old.Write(make([]byte, 16))
	old.WriteString("LBRIDX1\n")
	old.Write(make([]byte, 20))
	_, err := OpenIndex(&old)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("OpenIndex of an LBRSTOR1 snapshot: err = %v, want ErrSnapshotVersion", err)
	}
	if _, err := OpenIndex(strings.NewReader("LBRSTORX")); err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("an unknown magic: err = %v, want a bad-magic error", err)
	}
}

// streamMaps streams src through QueryStreamRowsObserved and hands fn each
// row as the map Result.Iterate builds: a variable per bound cell, an
// unbound OPTIONAL cell left out.
func streamMaps(ctx context.Context, s *Store, src string, fn func(map[string]Term) bool) error {
	return s.QueryStreamRowsObserved(ctx, src, nil, nil, func(vars []string, row []Term) bool {
		if row == nil {
			return true // the header call
		}
		m := make(map[string]Term, len(vars))
		for i, v := range vars {
			if !row[i].IsZero() {
				m[v] = row[i]
			}
		}
		return fn(m)
	})
}

func TestQueryStream(t *testing.T) {
	s := movieStore(t)
	var rows []map[string]Term
	err := streamMaps(context.Background(), s, movieQ2, func(m map[string]Term) bool {
		rows = append(rows, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("streamed %d rows, want 2", len(rows))
	}
	// NULL columns are omitted from the map.
	nullSeen := false
	for _, m := range rows {
		if _, ok := m["sitcom"]; !ok {
			nullSeen = true
			if m["friend"].Value != "Larry" {
				t.Errorf("unexpected NULL row: %v", m)
			}
		}
	}
	if !nullSeen {
		t.Error("expected one row with an omitted NULL column")
	}
}

func TestQueryStreamEarlyStop(t *testing.T) {
	s := movieStore(t)
	n := 0
	err := streamMaps(context.Background(), s, `SELECT * WHERE { ?a <actedIn> ?b . }`, func(map[string]Term) bool {
		n++
		return false // stop after the first row
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop delivered %d rows, want 1", n)
	}
}

func TestQueryStreamBestMatchFallback(t *testing.T) {
	// A cyclic query with a multi-jvar slave needs best-match, so its
	// branch collects and the stream replays the rows; results must match
	// the materialized Query path.
	s := NewStore()
	s.Add(TripleIRI("a1", "p", "b1"))
	s.Add(TripleIRI("b1", "q", "c1"))
	s.Add(TripleIRI("c1", "r", "a1"))
	s.Add(TripleIRI("a1", "s", "b1"))
	const q = `SELECT * WHERE {
		?a <p> ?b . ?b <q> ?c . ?c <r> ?a .
		OPTIONAL { ?a <s> ?b . } }`
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	if err := streamMaps(context.Background(), s, q, func(map[string]Term) bool {
		streamed++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != res.Len() {
		t.Fatalf("streamed %d, materialized %d", streamed, res.Len())
	}
}

func TestQueryStreamUnionFallback(t *testing.T) {
	s := movieStore(t)
	var n int
	err := streamMaps(context.Background(), s, `
		SELECT * WHERE {
			{ <Jerry> <hasFriend> ?x . } UNION { ?x <location> <NewYorkCity> . } }`,
		func(map[string]Term) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("union stream delivered %d rows, want 3", n)
	}
}

func TestQueryStreamEmptyMaster(t *testing.T) {
	s := movieStore(t)
	n := 0
	err := streamMaps(context.Background(), s, `SELECT * WHERE { <Nobody> <hasFriend> ?x . }`,
		func(map[string]Term) bool { n++; return true })
	if err != nil || n != 0 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}
