package lbr

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walBase returns the base triples every WAL test's stores start from.
func walBase() []Triple {
	return []Triple{
		TripleIRI("a", "p", "b"),
		TripleIRI("b", "p", "c"),
		TripleIRI("a", "q", "c"),
	}
}

func walStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.AddAll(walBase())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWALCrashRecovery pins the ISSUE's durability contract: a store that
// logged updates to a WAL and was abandoned without a clean close (the
// killed-server scenario) is reconstructed by replaying the WAL over the
// same base data.
func TestWALCrashRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "updates.wal")

	s1 := walStore(t)
	if n, err := s1.OpenWAL(walPath); err != nil || n != 0 {
		t.Fatalf("fresh WAL: applied=%d err=%v", n, err)
	}
	if _, err := s1.ApplyUpdate(`INSERT DATA { <c> <p> <d> . <d> <q> <a> }`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyUpdate(`DELETE DATA { <a> <p> <b> }`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyUpdate(`DELETE { ?s <q> ?o } INSERT { ?o <q> ?s } WHERE { ?s <q> ?o }`); err != nil {
		t.Fatal(err)
	}
	want := sortedQueryRows(t, s1, `SELECT * WHERE { ?s ?p ?o }`)
	// Crash: s1 is dropped without CloseWAL; the file stays behind.

	s2 := walStore(t)
	applied, err := s2.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("replay applied nothing")
	}
	got := sortedQueryRows(t, s2, `SELECT * WHERE { ?s ?p ?o }`)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayIsIdempotent re-opens the WAL on a store that already
// reflects its contents: every entry must be a no-op.
func TestWALReplayIsIdempotent(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "updates.wal")
	s1 := walStore(t)
	if _, err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyUpdate(`INSERT DATA { <x> <p> <y> }`); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Recover once...
	s2 := walStore(t)
	if applied, err := s2.OpenWAL(walPath); err != nil || applied != 1 {
		t.Fatalf("first replay: applied=%d err=%v", applied, err)
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// ...then replay again over the already-recovered graph.
	s3 := NewStore()
	s3.AddAll(walBase())
	s3.Add(TripleIRI("x", "p", "y"))
	if err := s3.Build(); err != nil {
		t.Fatal(err)
	}
	if applied, err := s3.OpenWAL(walPath); err != nil || applied != 0 {
		t.Fatalf("idempotent replay: applied=%d err=%v", applied, err)
	}
}

// TestWALLogsEffectiveOpsOnly checks redundant mutations never reach the
// log: re-inserting a present triple or deleting an absent one writes
// nothing, so replay cannot double-apply.
func TestWALLogsEffectiveOpsOnly(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "updates.wal")
	s := walStore(t)
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	// One effective insert, repeated twice more; one no-op delete.
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyUpdate(`INSERT DATA { <x> <p> <y> }`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ApplyUpdate(`DELETE DATA { <ghost> <p> <ghost> }`); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "A ") {
		t.Fatalf("want exactly one A line, got %q", string(data))
	}
}

// TestWALSurvivesCompaction checks compaction does not disturb the log or
// the recovered state: the WAL is never auto-truncated, and replaying it
// over the base is idempotent on top of whatever the delta already holds.
func TestWALSurvivesCompaction(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "updates.wal")
	s1 := walStore(t)
	if _, err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyUpdate(`INSERT DATA { <x> <p> <y> }`); err != nil {
		t.Fatal(err)
	}
	if err := s1.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyUpdate(`DELETE DATA { <b> <p> <c> }`); err != nil {
		t.Fatal(err)
	}
	want := sortedQueryRows(t, s1, `SELECT * WHERE { ?s ?p ?o }`)

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(data)), "\n")); got != 2 {
		t.Fatalf("want both entries in the WAL after compaction, got %d lines: %q", got, string(data))
	}

	s2 := walStore(t)
	if _, err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	got := sortedQueryRows(t, s2, `SELECT * WHERE { ?s ?p ?o }`)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
}

// tornWAL writes a log holding one acknowledged insert of <c> <p> <d>
// followed by tail, the unterminated bytes of an append that crashed
// before its fsync returned, and returns the log's path.
func tornWAL(t *testing.T, tail string) string {
	t.Helper()
	walPath := filepath.Join(t.TempDir(), "updates.wal")
	s := walStore(t)
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`INSERT DATA { <c> <p> <d> }`); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return walPath
}

// checkTornWALRecovery reopens a torn log: the store must restart with
// exactly the acknowledged insert, the torn tail must be cut from the
// file, and a write acknowledged after the restart must survive the next
// restart.
func checkTornWALRecovery(t *testing.T, walPath string) {
	t.Helper()
	s := walStore(t)
	if applied, err := s.OpenWAL(walPath); err != nil || applied != 1 {
		t.Fatalf("replay of torn log: applied=%d err=%v", applied, err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "A <c> <p> <d> .\n"; got != want {
		t.Fatalf("torn tail not truncated: log = %q, want %q", got, want)
	}
	if _, err := s.ApplyUpdate(`INSERT DATA { <e> <p> <f> }`); err != nil {
		t.Fatal(err)
	}
	want := sortedQueryRows(t, s, `SELECT * WHERE { ?s ?p ?o }`)
	// Crash again without CloseWAL, then restart.
	s2 := walStore(t)
	if applied, err := s2.OpenWAL(walPath); err != nil || applied != 2 {
		t.Fatalf("replay after restart: applied=%d err=%v", applied, err)
	}
	if got := sortedQueryRows(t, s2, `SELECT * WHERE { ?s ?p ?o }`); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
}

// TestWALTornTailMidTerm: a crash mid-append can cut the final line inside
// a term. That line was never acknowledged, so OpenWAL must drop it
// instead of failing to parse it.
func TestWALTornTailMidTerm(t *testing.T) {
	checkTornWALRecovery(t, tornWAL(t, "A <x> <p> <y"))
}

// TestWALTornTailMissingNewline: a crash can also cut the final line right
// after its object, leaving a line that parses but has no newline. It must
// still be dropped: replaying it would apply an unacknowledged write, and
// the next append would be glued onto it and corrupt the whole log.
func TestWALTornTailMissingNewline(t *testing.T) {
	checkTornWALRecovery(t, tornWAL(t, "A <x> <p> <y>"))
}

// TestWALMalformedCompleteLineRejected: only an unterminated final line is
// forgiven; a complete line that does not parse is corruption.
func TestWALMalformedCompleteLineRejected(t *testing.T) {
	walPath := tornWAL(t, "A <x> <p> <y\n")
	s := walStore(t)
	if _, err := s.OpenWAL(walPath); err == nil {
		t.Fatal("a malformed complete line must fail OpenWAL")
	}
}

func TestWALDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	s := walStore(t)
	if _, err := s.OpenWAL(filepath.Join(dir, "one.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(filepath.Join(dir, "two.wal")); err == nil {
		t.Fatal("second OpenWAL must fail while one is attached")
	}
}

// TestWALCheckpointAfterSaveIndex pins the checkpoint contract: once
// SaveIndex has persisted a snapshot covering every logged mutation, the
// WAL is cut to zero; recovery from snapshot + truncated log, plus any
// post-checkpoint entries, reproduces the live store exactly.
func TestWALCheckpointAfterSaveIndex(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "updates.wal")
	s := walStore(t)
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`INSERT DATA { <c> <p> <d> . <d> <q> <a> }`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`DELETE DATA { <a> <p> <b> }`); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL must hold the logged entries before checkpoint: size=%v err=%v", fi, err)
	}

	snapPath := filepath.Join(dir, "snapshot.lbr")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL must be truncated by the post-SaveIndex checkpoint: size=%d err=%v", fi.Size(), err)
	}

	// Post-checkpoint mutations land in the (now empty) log as usual.
	if _, err := s.ApplyUpdate(`INSERT DATA { <e> <p> <f> }`); err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(logged), "\n"); got != 1 {
		t.Fatalf("WAL must hold exactly the post-checkpoint entry, got %d lines:\n%s", got, logged)
	}
	want := sortedQueryRows(t, s, `SELECT * WHERE { ?s ?p ?o }`)

	// Recovery: snapshot + truncated-then-extended WAL.
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenIndex(sf)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
	if applied, err := s2.OpenWAL(walPath); err != nil || applied != 1 {
		t.Fatalf("replay over snapshot: applied=%d err=%v", applied, err)
	}
	got := sortedQueryRows(t, s2, `SELECT * WHERE { ?s ?p ?o }`)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
}

// TestWALCheckpointSkippedWhileDeltaDirty asserts the conservative side:
// a SaveIndex that races with later mutations must not cut entries the
// snapshot does not cover.
func TestWALCheckpointSkippedWhileDeltaDirty(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "updates.wal")
	s := walStore(t)
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdate(`INSERT DATA { <c> <p> <d> }`); err != nil {
		t.Fatal(err)
	}
	idx, err := s.ensureIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after the compaction the checkpoint would be based on.
	if _, err := s.ApplyUpdate(`INSERT DATA { <e> <p> <f> }`); err != nil {
		t.Fatal(err)
	}
	if err := s.maybeCheckpointWAL(idx); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint with a dirty delta must leave the WAL intact: size=%v err=%v", fi, err)
	}
}

// TestWALAppendFailureFailsLoadNTriples pins that a bulk load reports a
// failed WAL append instead of a silent zero: the load returns the error,
// and the triples it carried are neither counted nor queryable.
func TestWALAppendFailureFailsLoadNTriples(t *testing.T) {
	s := walStore(t)
	if _, err := s.OpenWAL(filepath.Join(t.TempDir(), "updates.wal")); err != nil {
		t.Fatal(err)
	}
	s.wal.f.Close() // every later append fails
	before := s.Len()
	n, err := s.LoadNTriples(strings.NewReader("<x> <p> <y> .\n"))
	if err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("LoadNTriples with a failing WAL: n=%d err=%v, want a wal append error", n, err)
	}
	if n != 0 || s.Len() != before {
		t.Fatalf("failed load added %d triples (Len %d, was %d)", n, s.Len(), before)
	}
	if ok, err := s.Ask(`ASK { <x> <p> <y> }`); err != nil || ok {
		t.Fatalf("triple of the failed load is queryable: ask=%v err=%v", ok, err)
	}
}
