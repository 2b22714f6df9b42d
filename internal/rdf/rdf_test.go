package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// dictionaryOf builds the dictionary of g's triples.
func dictionaryOf(g *Graph) *Dictionary {
	b := NewDictionaryBuilder()
	for _, tr := range g.Triples() {
		b.Add(tr)
	}
	d, _ := b.Build()
	return d
}

// sampleGraph returns the data of Figure 3.2 of the paper, which is also
// the basis of the Figure 4.1 bitcube test in internal/bitmat.
func sampleGraph() *Graph {
	g := NewGraph()
	for _, tr := range []Triple{
		T("Julia", "actedIn", "Seinfeld"),
		T("Julia", "actedIn", "Veep"),
		T("Julia", "actedIn", "NewAdvOldChristine"),
		T("Julia", "actedIn", "CurbYourEnthu"),
		T("Larry", "actedIn", "CurbYourEnthu"),
		T("Jerry", "hasFriend", "Julia"),
		T("Jerry", "hasFriend", "Larry"),
		T("Seinfeld", "location", "NewYorkCity"),
		T("Veep", "location", "D.C."),
		T("CurbYourEnthu", "location", "LosAngeles"),
		T("NewAdvOldChristine", "location", "Jersey"),
	} {
		g.Add(tr)
	}
	return g
}

func TestGraphDedup(t *testing.T) {
	g := NewGraph()
	if !g.Add(T("a", "p", "b")) {
		t.Fatal("first Add must report new")
	}
	if g.Add(T("a", "p", "b")) {
		t.Fatal("duplicate Add must report false")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if !g.Contains(T("a", "p", "b")) || g.Contains(T("a", "p", "c")) {
		t.Error("Contains misbehaves")
	}
}

func TestGraphStatsSample(t *testing.T) {
	st := sampleGraph().Stats()
	// Subjects: Julia, Larry, Jerry, Seinfeld, Veep, CurbYourEnthu,
	// NewAdvOldChristine = 7.
	// Objects: Seinfeld, Veep, NewAdvOldChristine, CurbYourEnthu, Julia,
	// Larry, NewYorkCity, D.C., LosAngeles, Jersey = 10.
	// Shared: Julia, Larry, Seinfeld, Veep, CurbYourEnthu,
	// NewAdvOldChristine = 6.
	if st.Triples != 11 || st.Subjects != 7 || st.Objects != 10 || st.Predicates != 3 || st.Shared != 6 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestDictionarySOLayout pins the one S/O space: every term that occurs
// as a subject or an object has one ID, in key order over the whole
// space, whichever roles it has; predicates have their own space.
func TestDictionarySOLayout(t *testing.T) {
	d := dictionaryOf(sampleGraph())
	want := []string{"CurbYourEnthu", "D.C.", "Jerry", "Jersey", "Julia", "Larry",
		"LosAngeles", "NewAdvOldChristine", "NewYorkCity", "Seinfeld", "Veep"}
	if d.NumSO() != len(want) {
		t.Fatalf("NumSO = %d, want %d", d.NumSO(), len(want))
	}
	for i, name := range want {
		if id := d.SOID(NewIRI(name)); id != ID(i+1) {
			t.Errorf("%s: ID %d, want %d", name, id, i+1)
		}
		if term, err := d.SOTerm(ID(i + 1)); err != nil || term != NewIRI(name) {
			t.Errorf("SOTerm(%d) = %v, %v, want %s", i+1, term, err, name)
		}
	}
	if d.SOID(NewIRI("actedIn")) != 0 || d.PredicateID(NewIRI("actedIn")) != 1 {
		t.Error("a predicate-only term must have a P ID and no S/O ID")
	}
	if d.NumSubjects() != d.NumSO() || d.NumObjects() != d.NumSO() || d.NumShared() != d.NumSO() {
		t.Error("NumSubjects, NumObjects and NumShared must all be NumSO")
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	g := sampleGraph()
	d := dictionaryOf(g)
	for _, tr := range g.Triples() {
		enc, err := d.Encode(tr)
		if err != nil {
			t.Fatalf("Encode(%s): %v", tr, err)
		}
		back, err := d.Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if back != tr {
			t.Fatalf("round trip %s -> %+v -> %s", tr, enc, back)
		}
	}
}

func TestDictionaryUnknownTerms(t *testing.T) {
	d := dictionaryOf(sampleGraph())
	if _, err := d.Encode(T("nobody", "actedIn", "Seinfeld")); err == nil {
		t.Error("unknown subject must fail")
	}
	if _, err := d.Encode(T("Julia", "nosuch", "Seinfeld")); err == nil {
		t.Error("unknown predicate must fail")
	}
	if _, err := d.Decode(IDTriple{S: 999, P: 1, O: 1}); err == nil {
		t.Error("out-of-range decode must fail")
	}
	if _, err := d.SOTerm(0); err == nil {
		t.Error("ID 0 is reserved")
	}
}

func TestDictionaryDeterministic(t *testing.T) {
	g := sampleGraph()
	d1, d2 := dictionaryOf(g), dictionaryOf(g)
	for _, tr := range g.Triples() {
		e1, _ := d1.Encode(tr)
		e2, _ := d2.Encode(tr)
		if e1 != e2 {
			t.Fatalf("non-deterministic encoding for %s: %+v vs %+v", tr, e1, e2)
		}
	}
}

func TestDictionaryDistinguishesKinds(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{S: NewIRI("x"), P: NewIRI("p"), O: NewIRI("v")})
	g.Add(Triple{S: NewIRI("x"), P: NewIRI("p"), O: NewLiteral("v")})
	g.Add(Triple{S: NewIRI("x"), P: NewIRI("p"), O: NewTypedLiteral("v", "dt")})
	g.Add(Triple{S: NewIRI("x"), P: NewIRI("p"), O: NewLangLiteral("v", "en")})
	d := dictionaryOf(g)
	ids := map[ID]bool{}
	for _, o := range []Term{NewIRI("v"), NewLiteral("v"), NewTypedLiteral("v", "dt"), NewLangLiteral("v", "en")} {
		id := d.SOID(o)
		if id == 0 {
			t.Fatalf("missing S/O ID for %s", o)
		}
		if ids[id] {
			t.Fatalf("ID collision between term kinds at %d", id)
		}
		ids[id] = true
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.Add(T("http://ex.org/s", "http://ex.org/p", "http://ex.org/o"))
	g.Add(TL("http://ex.org/s", "http://ex.org/name", `say "hi"`))
	g.Add(Triple{S: NewBlank("b1"), P: NewIRI("http://ex.org/p"), O: NewLangLiteral("bonjour", "fr")})
	g.Add(Triple{S: NewIRI("http://ex.org/s"), P: NewIRI("http://ex.org/age"), O: NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")})
	g.Add(Triple{S: NewIRI("http://ex.org/s"), P: NewIRI("http://ex.org/note"), O: NewLiteral("line1\nline2\ttab\\slash")})

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() {
		t.Fatalf("round trip %d triples, want %d", back.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !back.Contains(tr) {
			t.Errorf("missing %s after round trip", tr)
		}
	}
}

// TestQuickNTriplesLineRoundTrip is the identity property of the
// N-Triples rendering: ParseTripleLine(t.String()+" .") returns t. Literal
// lexical forms are arbitrary bytes, the five escapes, control bytes and
// invalid UTF-8 included; IRIs, blank labels, language tags and datatypes
// are arbitrary bytes less the delimiters that end them.
func TestQuickNTriplesLineRoundTrip(t *testing.T) {
	without := func(b []byte, cut string) string {
		out := make([]byte, 0, len(b))
		for _, c := range b {
			if strings.IndexByte(cut, c) < 0 {
				out = append(out, c)
			}
		}
		return string(out)
	}
	roundTrips := func(tr Triple) bool {
		got, err := ParseTripleLine(tr.String() + " .")
		if err != nil || got != tr {
			t.Logf("%q: parsed %#v, %v; want %#v", tr.String(), got, err, tr)
			return false
		}
		return true
	}
	f := func(subj, pred, obj, qual []byte, form uint8) bool {
		s := NewIRI(without(subj, ">"))
		if form&1 != 0 {
			label := without(subj, " \t")
			if label == "" {
				label = "b"
			}
			s = NewBlank(label)
		}
		o := NewLiteral(string(obj))
		switch (form >> 1) % 4 {
		case 1:
			o.Lang = without(qual, " \t")
		case 2:
			o.Datatype = without(qual, ">")
		case 3:
			o = NewIRI(without(obj, ">"))
		}
		return roundTrips(Triple{S: s, P: NewIRI(without(pred, ">")), O: o})
	}
	for _, lit := range []string{"t\tb\x80", "t\tb\uFFFD", "a\x80b", `a"b\c`, "\r\n\x00\xff", "\xe2\x82", "\xc0\xaf\""} {
		if !roundTrips(TL("s", "p", lit)) {
			t.Errorf("literal %q does not round-trip", lit)
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(45))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNTriplesSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\n<a> <p> <b> .\n  \n# another\n<a> <p> \"lit\" .\n"
	g, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("parsed %d triples, want 2", g.Len())
	}
}

func TestNTriplesErrors(t *testing.T) {
	bad := []string{
		"<a> <p>",                      // missing object
		"<a> \"lit\" <b> .",            // literal predicate
		"<a> <p> <b> . extra",          // trailing garbage
		"<unterminated <p> <b> .",      // IRI containing < but missing >
		"<a> <p> \"unterminated .",     // unterminated literal
		"_: <p> <b> .",                 // empty blank label
		"<a> <p> \"x\\q\" .",           // unknown escape
		"<a> <p> \"x\"^^<unterminated", // unterminated datatype
	}
	for _, line := range bad {
		if _, err := ReadNTriples(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewBlank("n1"), "_:n1"},
		{NewLiteral("plain"), `"plain"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("1", "http://t"), `"1"^^<http://t>`},
		{NewLiteral("a\"b"), `"a\"b"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %s, want %s", c.term, got, c.want)
		}
	}
}

func TestTermKeyUniqueness(t *testing.T) {
	terms := []Term{
		NewIRI("v"), NewLiteral("v"), NewBlank("v"),
		NewTypedLiteral("v", "d"), NewLangLiteral("v", "en"),
		NewLangLiteral("v", "de"), NewTypedLiteral("v", "d2"),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		if prev, dup := seen[tm.Key()]; dup {
			t.Errorf("Key collision: %v and %v", prev, tm)
		}
		seen[tm.Key()] = tm
	}
}

func TestQuickDictionaryBijective(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for i := 0; i < int(n)+1; i++ {
			g.Add(T(
				fmt.Sprintf("s%d", rng.Intn(20)),
				fmt.Sprintf("p%d", rng.Intn(5)),
				fmt.Sprintf("o%d", rng.Intn(20))))
		}
		d := dictionaryOf(g)
		for _, tr := range g.Triples() {
			enc, err := d.Encode(tr)
			if err != nil {
				return false
			}
			back, err := d.Decode(enc)
			if err != nil || back != tr {
				return false
			}
		}
		// One space: every S/O ID resolves to a term whose ID it is.
		for id := 1; id <= d.NumSO(); id++ {
			term, err := d.SOTerm(ID(id))
			if err != nil || d.SOID(term) != ID(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDictionaryBuilderMatchesKeyLayout pins the interning builder to the
// layout written out by hand: the S/O space holds every subject and
// object term sorted by Key, the P space every predicate sorted by Key,
// and the Remap of every provisional triple equals Encode of the triple.
// The fixture mixes kinds, language tags, datatypes, terms in several
// roles, and an IRI carrying a stray datatype, whose Key equals the plain
// IRI's, so both must get one ID.
func TestDictionaryBuilderMatchesKeyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	terms := []Term{
		NewIRI("a"), NewIRI("b"), NewIRI("p"), NewBlank("a"), NewBlank("z"),
		NewLiteral("a"), NewLangLiteral("a", "en"), NewTypedLiteral("a", "http://dt"),
		{Kind: IRI, Value: "b", Datatype: "http://stray"},
	}
	preds := []Term{NewIRI("p"), NewIRI("q"), NewIRI("a")}
	var trs []Triple
	for i := 0; i < 300; i++ {
		s := terms[rng.Intn(5)]
		if s.Kind == Literal {
			s = NewIRI("s")
		}
		trs = append(trs, Triple{S: s, P: preds[rng.Intn(len(preds))], O: terms[rng.Intn(len(terms))]})
	}
	b := NewDictionaryBuilder()
	prov := make([]IDTriple, len(trs))
	for i, tr := range trs {
		prov[i] = b.Add(tr)
	}
	d, remap := b.Build()

	so, pred := map[string]bool{}, map[string]bool{}
	for _, tr := range trs {
		so[tr.S.Key()], so[tr.O.Key()], pred[tr.P.Key()] = true, true, true
	}
	sorted := func(m map[string]bool) []string {
		var l []string
		for k := range m {
			l = append(l, k)
		}
		sort.Strings(l)
		return l
	}
	check := func(dim string, want []string, n int, at func(ID) (Term, error)) {
		t.Helper()
		if n != len(want) {
			t.Fatalf("%s: %d terms, want %d", dim, n, len(want))
		}
		for i, k := range want {
			got, err := at(ID(i + 1))
			if err != nil || got.Key() != k {
				t.Fatalf("%s ID %d = %v (%v), want key %q", dim, i+1, got, err, k)
			}
		}
	}
	check("S/O", sorted(so), d.NumSO(), d.SOTerm)
	check("P", sorted(pred), d.NumPredicates(), d.Predicate)
	for i, tr := range trs {
		want, err := d.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := remap.Triple(prov[i]); got != want {
			t.Fatalf("triple %d %v: remapped %v, Encode %v", i, tr, got, want)
		}
	}
}

// TestScanNTriplesStreams pins the streaming reader: statements arrive in
// input order with duplicates kept, and a malformed line stops the scan
// with its line number after the statements before it.
func TestScanNTriplesStreams(t *testing.T) {
	in := "<a> <p> <b> .\n# c\n<a> <p> <b> .\n_:x <p> \"v\"@en .\nbad\n<z> <p> <z> .\n"
	var got []Triple
	err := ScanNTriples(strings.NewReader(in), func(tr Triple) { got = append(got, tr) })
	if err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Fatalf("err = %v, want one naming line 5", err)
	}
	want := []Triple{T("a", "p", "b"), T("a", "p", "b"), {S: NewBlank("x"), P: NewIRI("p"), O: NewLangLiteral("v", "en")}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statement %d = %v, want %v", i, got[i], want[i])
		}
	}
}
