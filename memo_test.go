package lbr

import (
	"context"
	"fmt"
	"testing"
)

// triangleTriples is a cyclic graph for the triangle query below: n <p>
// edges a_i→b_i, q <q> edges b_i→c_i and r <r> edges c_i→a_i, so the
// triangles are i < min(n, q, r) and each join variable's selectivity
// (the smaller count of its two patterns) follows the three counts.
func triangleTriples(from, to int, pred string) []Triple {
	names := map[string][2]string{"p": {"a", "b"}, "q": {"b", "c"}, "r": {"c", "a"}}[pred]
	var ts []Triple
	for i := from; i < to; i++ {
		ts = append(ts, TripleIRI(fmt.Sprintf("%s%d", names[0], i), pred, fmt.Sprintf("%s%d", names[1], i)))
	}
	return ts
}

const triangleQuery = `SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?a . }`

// TestQueryMemoRetiredByWrite pins that a write retires the memo with its
// snapshot: after an insert that changes the greedy jvar order of a
// memoized cyclic query (p=10, q=3, r=20 ranks ?b and ?c before ?a; q=23
// ranks ?a first and ?c last), the store plans the query afresh and
// returns the rows of a store built cold from the same triples.
func TestQueryMemoRetiredByWrite(t *testing.T) {
	base := append(append(triangleTriples(0, 10, "p"), triangleTriples(0, 3, "q")...), triangleTriples(0, 20, "r")...)
	s := NewStore()
	s.AddAll(base)
	for i, want := range []bool{false, true} {
		_, root, err := s.QueryTrace(context.Background(), triangleQuery)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanCached(t, fmt.Sprintf("read %d before the insert", i), root, want)
	}
	if m := s.MemoStats(); m != (MemoStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("memo after two reads of one text: %+v", m)
	}

	added := triangleTriples(3, 23, "q")
	s.AddAll(added)
	if m := s.MemoStats(); m.Entries != 0 {
		t.Errorf("the write left %d texts in the new snapshot's memo", m.Entries)
	}
	got, root, err := s.QueryTrace(context.Background(), triangleQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanCached(t, "read after the insert", root, false)
	cold := NewStore()
	cold.AddAll(append(base, added...))
	want, err := cold.Query(triangleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || got.Len() != 10 {
		t.Errorf("rows after the insert differ from a cold-built store's (%d rows, want 10):\n got %s\nwant %s", got.Len(), got.String(), want.String())
	}
	if countStats(got.Stats) != countStats(want.Stats) {
		t.Errorf("stats after the insert %+v, cold-built %+v", countStats(got.Stats), countStats(want.Stats))
	}
}

// TestQueryMemoCheckQuery pins the server's pre-admission check: it never
// builds the index, files nothing in the memo (the admitted read prepares
// the text), answers a text the memo holds without parsing, and is not
// counted in MemoStats.
func TestQueryMemoCheckQuery(t *testing.T) {
	s := NewStore()
	s.AddAll(triangleTriples(0, 3, "p"))
	if ask, err := s.CheckQuery(`ASK { ?a <p> ?b }`); err != nil || !ask {
		t.Fatalf("CheckQuery(ASK) = %v, %v", ask, err)
	}
	if s.Built() {
		t.Fatal("CheckQuery built the index")
	}
	if _, err := s.CheckQuery(`SELECT * WHERE {`); err == nil {
		t.Error("CheckQuery accepted a malformed text")
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT * WHERE { ?a <p> ?b }`
	if ask, err := s.CheckQuery(q); err != nil || ask {
		t.Fatalf("CheckQuery(SELECT) = %v, %v", ask, err)
	}
	if m := s.MemoStats(); m != (MemoStats{}) {
		t.Errorf("memo after a check: %+v, want it empty and uncounted", m)
	}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if s.snap.Load().eng.Memoized(q) == nil {
		t.Fatal("the read did not file its text")
	}
	if ask, err := s.CheckQuery(q); err != nil || ask {
		t.Fatalf("CheckQuery(SELECT) from the memo = %v, %v", ask, err)
	}
	if m := s.MemoStats(); m != (MemoStats{Misses: 1, Entries: 1}) {
		t.Errorf("memo after check, read, check of one text: %+v, want the read's one miss", m)
	}
}
