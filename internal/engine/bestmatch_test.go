package engine

import (
	"fmt"
	"slices"
	"testing"
)

// rowValues interns the values of the hand-built rows below: each
// distinct value gets the next cell, the way a dictionary ID does.
var rowValues []string

// row builds a row of cells; "" is a NULL.
func row(vals ...string) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		if v == "" {
			continue
		}
		if k := slices.Index(rowValues, v); k >= 0 {
			r[i] = uint32(k + 1)
		} else {
			rowValues = append(rowValues, v)
			r[i] = uint32(len(rowValues))
		}
	}
	return r
}

// value returns the value a cell of row stands for ("" for a NULL).
func value(c uint32) string {
	if c == 0 {
		return ""
	}
	return rowValues[c-1]
}

func TestSubsumes(t *testing.T) {
	full := row("Julia", "Seinfeld")
	partial := row("Julia", "")
	other := row("Larry", "")
	if !subsumes(full, partial) {
		t.Error("(Julia,Seinfeld) must subsume (Julia,NULL)")
	}
	if subsumes(partial, full) {
		t.Error("subsumption is not symmetric")
	}
	if subsumes(full, other) || subsumes(other, partial) {
		t.Error("different bindings must not subsume")
	}
	if subsumes(full, full) {
		t.Error("equal rows do not subsume each other (strictness)")
	}
	if subsumes(row("Julia", ""), row("Julia", "")) {
		t.Error("identical partial rows do not subsume each other")
	}
}

func TestFigure32NullificationWorkedExample(t *testing.T) {
	// Figure 3.2: evaluating the reordered query (tp1 leftjoin tp2)
	// leftjoin tp3 without pruning produces Res1; nullification makes the
	// inconsistent ?sitcom bindings NULL (Res2); best-match removes the
	// subsumed rows, leaving Res3 = {(Julia, Seinfeld), (Larry, NULL)}.
	res2 := []Row{
		row("Julia", "Seinfeld"),
		row("Julia", ""), // was Veep, nullified
		row("Julia", ""), // was NewAdvOldChristine, nullified
		row("Julia", ""), // was CurbYourEnthu, nullified
		row("Larry", ""),
	}
	// The nullified duplicates collapse first (they came from the same
	// master binding), then best-match removes the subsumed (Julia, NULL).
	changed := []bool{false, true, true, true, true}
	rows, _ := dedupNullified(res2, changed)
	rows = bestMatch(rows)
	got := make([]string, len(rows))
	for i, r := range rows {
		s := value(r[0])
		if r.IsNull(1) {
			got[i] = s + "/NULL"
		} else {
			got[i] = s + "/" + value(r[1])
		}
	}
	want := []string{"Julia/Seinfeld", "Larry/NULL"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Res3 = %v, want %v", got, want)
	}
}

func TestFigure32EndToEndReorderedPath(t *testing.T) {
	// The same worked example through the engine: with pruning disabled
	// the join is effectively the reordered plan over non-minimal triples,
	// and nullification + best-match must reconstruct Res3.
	e := engineOver(t, figure32Graph(), Options{DisablePruning: true, DisableActivePruning: true})
	res, err := execString(e, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BestMatch {
		t.Error("the no-prune path must engage nullification/best-match (Lemma 3.1)")
	}
	got := rowsAsStrings(res)
	want := []string{"<Julia>|<Seinfeld>", "<Larry>|NULL"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestBestMatchKeepsIncomparableRows(t *testing.T) {
	rows := []Row{
		row("a", "", "x"),
		row("a", "y", ""), // incomparable null masks: neither subsumes
	}
	out := bestMatch(rows)
	if len(out) != 2 {
		t.Fatalf("incomparable rows must both survive, got %d", len(out))
	}
}

func TestBestMatchChainOfSubsumption(t *testing.T) {
	rows := []Row{
		row("a", "b", "c"),
		row("a", "b", ""),
		row("a", "", ""),
	}
	out := bestMatch(rows)
	if len(out) != 1 || value(out[0][2]) != "c" {
		t.Fatalf("only the maximal row survives, got %d rows", len(out))
	}
}

func TestBestMatchPreservesDuplicates(t *testing.T) {
	// Bag semantics: equal complete rows are not subsumed.
	rows := []Row{
		row("a", "b"),
		row("a", "b"),
	}
	out := bestMatch(rows)
	if len(out) != 2 {
		t.Fatalf("equal rows must both survive (bag semantics), got %d", len(out))
	}
}

func TestBestMatchCrossMaskHashing(t *testing.T) {
	// A row is only subsumed by rows agreeing on all its non-null columns.
	rows := []Row{
		row("a", "b", "c"),
		row("a", "", "z"), // c != z on a non-null column: kept
		row("a", "", "c"), // agrees: removed
	}
	out := bestMatch(rows)
	if len(out) != 2 {
		t.Fatalf("got %d rows", len(out))
	}
	for _, r := range out {
		if r.IsNull(1) && value(r[2]) == "c" && value(r[0]) == "a" {
			t.Error("subsumed row survived")
		}
	}
}

func TestBestMatchEmptyAndSingle(t *testing.T) {
	if out := bestMatch(nil); len(out) != 0 {
		t.Error("empty input")
	}
	one := []Row{row("a")}
	if out := bestMatch(one); len(out) != 1 {
		t.Error("single row must survive")
	}
}

func TestDedupNullified(t *testing.T) {
	rows := []Row{
		row("a", ""),
		row("a", ""), // duplicate, changed: collapses
		row("a", ""), // duplicate, unchanged: survives (legit bag dup)
		row("b", ""),
	}
	changed := []bool{true, true, false, true}
	outRows, outChanged := dedupNullified(rows, changed)
	if len(outRows) != 3 {
		t.Fatalf("rows after dedup = %d, want 3", len(outRows))
	}
	if len(outChanged) != len(outRows) {
		t.Fatal("changed slice out of sync")
	}
}

func TestRowNullCountAndKey(t *testing.T) {
	r := row("a", "", "c")
	if r.NullCount() != 1 || !r.IsNull(1) || r.IsNull(0) {
		t.Error("null accounting broken")
	}
	r2 := row("a", "", "c")
	if r.key() != r2.key() {
		t.Error("equal rows must have equal keys")
	}
	r3 := row("a", "c", "")
	if r.key() == r3.key() {
		t.Error("different null positions must differ in key")
	}
}
