package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitmat"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Dataset bundles a generated graph with its index and query set.
type Dataset struct {
	Name    string
	Graph   *rdf.Graph
	Index   *bitmat.Index
	Queries []QuerySpec
}

// BuildLUBM generates and indexes the LUBM-like dataset.
func BuildLUBM(universities int) (*Dataset, error) {
	g := datagen.GenerateLUBM(datagen.DefaultLUBMConfig(universities))
	idx, err := bitmat.Build(g)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: "LUBM", Graph: g, Index: idx, Queries: LUBMQueries()}, nil
}

// BuildUniProt generates and indexes the UniProt-like dataset.
func BuildUniProt(proteins int) (*Dataset, error) {
	g := datagen.GenerateUniProt(datagen.DefaultUniProtConfig(proteins))
	idx, err := bitmat.Build(g)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: "UniProt", Graph: g, Index: idx, Queries: UniProtQueries()}, nil
}

// BuildDBPedia generates and indexes the DBPedia-like dataset.
func BuildDBPedia(entities int) (*Dataset, error) {
	g := datagen.GenerateDBPedia(datagen.DefaultDBPediaConfig(entities))
	idx, err := bitmat.Build(g)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: "DBPedia", Graph: g, Index: idx, Queries: DBPediaQueries()}, nil
}

// Measurement is one row of Tables 6.2-6.4.
type Measurement struct {
	Query          string
	TInit          time.Duration // LBR init
	TPrune         time.Duration // LBR prune_triples
	TTotal         time.Duration // LBR end to end
	TVirt          time.Duration // "Virtuoso-like" baseline (SelectiveMaster)
	TMonet         time.Duration // "MonetDB-like" baseline (OriginalOrder)
	InitialTriples int64
	AfterPruning   int64
	Results        int
	NullResults    int
	BestMatch      bool
	// Agreement across engines, checked on every run.
	Consistent bool
}

// RunOptions tune a table run.
type RunOptions struct {
	// Runs is the number of timed repetitions; the paper uses warm-cache
	// medians over 5 runs after a discarded warm-up.
	Runs int
	// SkipBaselines measures only LBR.
	SkipBaselines bool
	// Verify cross-checks the three engines' result multisets.
	Verify bool
}

// RunQuery measures one query on all engines.
func RunQuery(ds *Dataset, spec QuerySpec, opts RunOptions) (Measurement, error) {
	m := Measurement{Query: spec.ID, Consistent: true}
	q, err := sparql.Parse(spec.SPARQL)
	if err != nil {
		return m, fmt.Errorf("%s/%s: %w", ds.Name, spec.ID, err)
	}
	// Workers pinned to 1: the 6.x tables reproduce the paper's sequential
	// algorithm, not the parallel layer.
	lbr := engine.New(ds.Index, engine.Options{Workers: 1})
	virt := baseline.New(ds.Index, baseline.SelectiveMaster)
	monet := baseline.New(ds.Index, baseline.OriginalOrder)

	runs := opts.Runs
	if runs < 1 {
		runs = 1
	}
	var lbrRows []string
	for i := 0; i <= runs; i++ { // one discarded warm-up + timed runs
		start := time.Now()
		res, err := lbr.Execute(context.Background(), lbr.Prepare(q), nil)
		if err != nil {
			return m, fmt.Errorf("%s/%s lbr: %w", ds.Name, spec.ID, err)
		}
		elapsed := time.Since(start)
		if i == 0 {
			m.InitialTriples = res.Stats.InitialTriples
			m.AfterPruning = res.Stats.AfterPruning
			m.Results = len(res.Rows)
			m.NullResults = res.Stats.NullResults
			m.BestMatch = res.Stats.BestMatch
			if opts.Verify {
				lbrRows = canonicalRows(res.Terms(), res.Vars)
			}
			continue
		}
		m.TInit += res.Stats.Init
		m.TPrune += res.Stats.Prune
		m.TTotal += elapsed
	}
	m.TInit /= time.Duration(runs)
	m.TPrune /= time.Duration(runs)
	m.TTotal /= time.Duration(runs)

	if !opts.SkipBaselines {
		for i := 0; i <= runs; i++ {
			start := time.Now()
			vres, err := virt.Execute(q)
			if err != nil {
				return m, fmt.Errorf("%s/%s virtuoso-like: %w", ds.Name, spec.ID, err)
			}
			if i == 0 {
				if opts.Verify {
					got := canonicalRows(vres.Rows, vres.Vars)
					if !equalStrings(lbrRows, got) {
						m.Consistent = false
					}
				}
				continue
			}
			m.TVirt += time.Since(start)
		}
		m.TVirt /= time.Duration(runs)
		for i := 0; i <= runs; i++ {
			start := time.Now()
			mres, err := monet.Execute(q)
			if err != nil {
				return m, fmt.Errorf("%s/%s monetdb-like: %w", ds.Name, spec.ID, err)
			}
			if i == 0 {
				if opts.Verify {
					got := canonicalRows(mres.Rows, mres.Vars)
					if !equalStrings(lbrRows, got) {
						m.Consistent = false
					}
				}
				continue
			}
			m.TMonet += time.Since(start)
		}
		m.TMonet /= time.Duration(runs)
	}
	return m, nil
}

// RunTable measures the dataset's full query set.
func RunTable(ds *Dataset, opts RunOptions) ([]Measurement, error) {
	out := make([]Measurement, 0, len(ds.Queries))
	for _, spec := range ds.Queries {
		m, err := RunQuery(ds, spec, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// canonicalRows renders rows with columns in sorted-variable order so that
// engines with different variable orders compare equal.
func canonicalRows(rows [][]rdf.Term, vars []sparql.Var) []string {
	order := make([]int, len(vars))
	sorted := append([]sparql.Var(nil), vars...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := map[sparql.Var]int{}
	for i, v := range vars {
		pos[v] = i
	}
	for i, v := range sorted {
		order[i] = pos[v]
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for k, c := range order {
			if k > 0 {
				s += "|"
			}
			if r[c].IsZero() {
				s += "NULL"
			} else {
				s += r[c].String()
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FprintTable renders measurements in the layout of Tables 6.2-6.4.
func FprintTable(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-5s %10s %10s %10s %10s %10s %14s %14s %10s %10s %5s %5s\n",
		"", "Tinit", "Tprune", "Ttotal", "TVirt", "TMonet",
		"#initial", "#aft-prune", "#results", "#nulls", "BM?", "OK?")
	for _, m := range ms {
		fmt.Fprintf(w, "%-5s %10s %10s %10s %10s %10s %14d %14d %10d %10d %5v %5v\n",
			m.Query, fmtDur(m.TInit), fmtDur(m.TPrune), fmtDur(m.TTotal),
			fmtDur(m.TVirt), fmtDur(m.TMonet),
			m.InitialTriples, m.AfterPruning, m.Results, m.NullResults,
			yn(m.BestMatch), yn(m.Consistent))
	}
}

// FprintTable61 renders dataset characteristics like Table 6.1.
func FprintTable61(w io.Writer, stats map[string]rdf.Stats) {
	fmt.Fprintf(w, "Table 6.1: Dataset characteristics\n")
	fmt.Fprintf(w, "%-10s %12s %12s %8s %12s\n", "Dataset", "#triples", "#S", "#P", "#O")
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "%-10s %12d %12d %8d %12d\n", n, s.Triples, s.Subjects, s.Predicates, s.Objects)
	}
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// GeometricMeanMillis computes the geometric mean of a duration column in
// milliseconds, as reported at the end of Section 6.2.
func GeometricMeanMillis(ms []Measurement, pick func(Measurement) time.Duration) float64 {
	if len(ms) == 0 {
		return 0
	}
	logSum := 0.0
	for _, m := range ms {
		v := float64(pick(m).Microseconds()) / 1000.0
		if v <= 0 {
			v = 0.001
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(ms)))
}
