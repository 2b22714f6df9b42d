package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitmat"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sparql"
)

// CrossoverPoint is one row of the selectivity sweep: the running-example
// query measured while the background data (actors in New York sitcoms)
// grows, so the OPTIONAL's inner join moves from high to low selectivity.
// This regenerates, as a parameter sweep, the qualitative claim of
// Sections 1 and 6: pairwise engines must evaluate the low-selectivity
// inner join before the left-outer join, while LBR's pruning keeps the
// work proportional to the master's selectivity.
type CrossoverPoint struct {
	ExtraActors    int
	Triples        int
	LBR            time.Duration
	Virt           time.Duration
	Monet          time.Duration
	InitialTriples int64
	AfterPruning   int64
}

// RunCrossover measures the running-example query over increasing
// background sizes.
func RunCrossover(sizes []int, runs int) ([]CrossoverPoint, error) {
	if runs < 1 {
		runs = 1
	}
	spec := MovieQuery()
	q, err := sparql.Parse(spec.SPARQL)
	if err != nil {
		return nil, err
	}
	var out []CrossoverPoint
	for _, n := range sizes {
		g := datagen.MovieGraph(n)
		idx, err := bitmat.Build(g)
		if err != nil {
			return nil, err
		}
		pt := CrossoverPoint{ExtraActors: n, Triples: g.Len()}
		lbrEng := engine.New(idx, engine.Options{Workers: 1})
		virt := baseline.New(idx, baseline.SelectiveMaster)
		monet := baseline.New(idx, baseline.OriginalOrder)
		for i := 0; i <= runs; i++ {
			start := time.Now()
			res, err := lbrEng.Execute(context.Background(), lbrEng.Prepare(q), nil)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				pt.InitialTriples = res.Stats.InitialTriples
				pt.AfterPruning = res.Stats.AfterPruning
				if len(res.Rows) != 2 {
					return nil, fmt.Errorf("crossover at %d actors: %d rows, want 2", n, len(res.Rows))
				}
				continue
			}
			pt.LBR += time.Since(start)
		}
		pt.LBR /= time.Duration(runs)
		for i := 0; i <= runs; i++ {
			start := time.Now()
			if _, err := virt.Execute(q); err != nil {
				return nil, err
			}
			if i > 0 {
				pt.Virt += time.Since(start)
			}
		}
		pt.Virt /= time.Duration(runs)
		for i := 0; i <= runs; i++ {
			start := time.Now()
			if _, err := monet.Execute(q); err != nil {
				return nil, err
			}
			if i > 0 {
				pt.Monet += time.Since(start)
			}
		}
		pt.Monet /= time.Duration(runs)
		out = append(out, pt)
	}
	return out, nil
}

// FprintCrossover renders the sweep as an aligned table.
func FprintCrossover(w io.Writer, pts []CrossoverPoint) {
	fmt.Fprintln(w, "Selectivity sweep: intro query Q2 vs background actors (2 results throughout)")
	fmt.Fprintf(w, "%12s %10s %10s %10s %10s %12s %12s\n",
		"extraActors", "#triples", "LBR", "Virt", "Monet", "#initial", "#aft-prune")
	for _, p := range pts {
		fmt.Fprintf(w, "%12d %10d %10s %10s %10s %12d %12d\n",
			p.ExtraActors, p.Triples,
			fmtDur(p.LBR), fmtDur(p.Virt), fmtDur(p.Monet),
			p.InitialTriples, p.AfterPruning)
	}
}
