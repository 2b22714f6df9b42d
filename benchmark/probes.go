package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	lbr "repro"
	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/rdf"
	"repro/internal/results"
	"repro/internal/sparql"
)

// The kernel probes of a traced run time calls into the public functions
// of the layers below the store, on inputs taken from the run's dataset.
// They do not depend on the workload; each traced run repeats them so
// that every per-layer metric is in every traced run's output.

const probeWorkers = 2 // GOMAXPROCS of the benchmark

// medianOver times fn once per item after one untimed pass over all of
// them, and returns the median in the given unit.
func medianOver(n int, unit time.Duration, fn func(i int)) float64 {
	for i := 0; i < n; i++ {
		fn(i)
	}
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(xs)
}

// probeKernels measures the rdf, bitmat, bitvec, sparql, algebra and
// results layers.
func probeKernels(ds *Dataset, seed int64, queries []*Query, updates []string, materialized []*lbr.Result) (values, error) {
	v := values{}
	rng := rand.New(rand.NewSource(subSeed(seed, "probes")))

	t0 := time.Now()
	g, err := rdf.ReadNTriplesParallel(bytes.NewReader(ds.NT), probeWorkers)
	if err != nil {
		return nil, fmt.Errorf("probe rdf: %w", err)
	}
	v["rdf.parse_triples_per_s"] = float64(g.Len()) / time.Since(t0).Seconds()

	t0 = time.Now()
	idx, err := bitmat.BuildParallel(g, probeWorkers)
	if err != nil {
		return nil, fmt.Errorf("probe bitmat: %w", err)
	}
	v["bitmat.build_s"] = time.Since(t0).Seconds()
	dict := idx.Dictionary()
	v["rdf.dict_terms"] = float64(dict.NumSubjects() + dict.NumObjects() - dict.NumShared() + dict.NumPredicates())

	// The predicates the analytic templates name.
	var preds []rdf.ID
	seen := map[rdf.ID]bool{}
	for _, q := range analyticQueries() {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			return nil, fmt.Errorf("probe: parse %s: %w", q.Class, err)
		}
		tree, err := algebra.FromQuery(parsed)
		if err != nil {
			return nil, fmt.Errorf("probe: %s: %w", q.Class, err)
		}
		for _, tp := range algebra.TreePatterns(tree) {
			if tp.P.IsVar {
				continue
			}
			if p := dict.PredicateID(tp.P.Term); p != 0 && !seen[p] {
				seen[p] = true
				preds = append(preds, p)
			}
		}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("probe: no analytic predicate found in the dictionary")
	}
	v["bitmat.mat_load_us"] = medianOver(len(preds), time.Microsecond, func(i int) {
		idx.MatSO(preds[i])
		idx.MatOS(preds[i])
	})
	var mats []*bitmat.Matrix
	for _, p := range preds {
		mats = append(mats, idx.MatSO(p), idx.MatOS(p))
	}
	v["bitmat.clone_us"] = medianOver(len(mats), time.Microsecond, func(i int) { mats[i].Clone() })
	v["bitmat.fold_us"] = medianOver(len(mats), time.Microsecond, func(i int) {
		mats[i].Fold(bitmat.Rows)
		mats[i].Fold(bitmat.Cols)
	})
	halfMask := func(n int) *bitvec.Bits {
		b := bitvec.NewBits(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		return b
	}
	rowMasks := make([]*bitvec.Bits, len(mats))
	colMasks := make([]*bitvec.Bits, len(mats))
	for i, m := range mats {
		rowMasks[i], colMasks[i] = halfMask(m.NRows()), halfMask(m.NCols())
	}
	// Unfold mutates, so each timing is of a fresh, untimed clone.
	unfold := func(i int) time.Duration {
		c := mats[i].Clone()
		t0 := time.Now()
		c.Unfold(colMasks[i], bitmat.Cols)
		c.Unfold(rowMasks[i], bitmat.Rows)
		return time.Since(t0)
	}
	unfoldUS := make([]float64, len(mats))
	for i := range mats {
		unfold(i)
		unfoldUS[i] = float64(unfold(i)) / float64(time.Microsecond)
	}
	v["bitmat.unfold_us"] = median(unfoldUS)

	// A delta of 1000: 500 inserts of new triples, 500 deletes of present ones.
	var ins, del []rdf.Triple
	for i := 0; i < 500; i++ {
		ins = append(ins, rdf.TL(fmt.Sprintf("http://bench.example/s%d", i), ub("name"), fmt.Sprintf("probe %d", i)))
	}
	ts := g.Triples()
	for _, i := range rng.Perm(len(ts))[:500] {
		del = append(del, ts[i])
	}
	t0 = time.Now()
	if _, err := bitmat.NewOverlay(idx, ins, del); err != nil {
		return nil, fmt.Errorf("probe overlay: %w", err)
	}
	v["bitmat.overlay_build_ms"] = durMS(time.Since(t0))

	// bitvec: up to 10 000 rows sampled from the largest analytic matrix.
	largest := mats[0]
	for _, m := range mats {
		if m.Count() > largest.Count() {
			largest = m
		}
	}
	var rows []*bitvec.Row
	largest.ForEachRow(func(_ int, r *bitvec.Row) bool {
		rows = append(rows, r)
		return true
	})
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if len(rows) > 10000 {
		rows = rows[:10000]
	}
	mask := halfMask(largest.NCols())
	const passes = 5
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, r := range rows {
			r.And(mask)
		}
	}
	v["bitvec.row_and_ns"] = float64(time.Since(t0)) / float64(passes*len(rows))
	bits := 0
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, r := range rows {
			r.ForEach(func(int) bool { bits++; return true })
		}
	}
	v["bitvec.row_foreach_ns_per_bit"] = ratio(float64(time.Since(t0)), float64(bits))

	// sparql and algebra, over one query per class of the workload.
	v["sparql.parse_us"] = medianOver(len(queries), time.Microsecond, func(i int) { _, _ = sparql.Parse(queries[i].Text) })
	v["sparql.parse_update_us"] = 0
	if len(updates) > 0 {
		v["sparql.parse_update_us"] = medianOver(len(updates), time.Microsecond, func(i int) { _, _ = sparql.ParseUpdate(updates[i]) })
	}
	parsed := make([]*sparql.Query, len(queries))
	for i, q := range queries {
		if parsed[i], err = sparql.Parse(q.Text); err != nil {
			return nil, fmt.Errorf("probe: parse %s: %w", q.Class, err)
		}
	}
	var rewriteErr error
	v["algebra.rewrite_us"] = medianOver(len(parsed), time.Microsecond, func(i int) {
		if err := rewrite(parsed[i]); err != nil {
			rewriteErr = err
		}
	})
	if rewriteErr != nil {
		return nil, fmt.Errorf("probe algebra: %w", rewriteErr)
	}

	// results: the writers over the materialized analytic results.
	for _, f := range []format{formatJSON, formatTSV} {
		var cw countingWriter
		nRows := 0
		t0 = time.Now()
		for _, res := range materialized {
			sw := results.NewWriter(f.serializer(), &cw)
			_ = sw.Begin(res.Vars) // a countingWriter cannot fail
			for i := 0; i < res.Len(); i++ {
				_ = sw.Row(res.Row(i))
			}
			_ = sw.End()
			nRows += res.Len()
		}
		v["results."+f.String()+"_rows_per_s"] = float64(nRows) / time.Since(t0).Seconds()
		if f == formatJSON {
			v["results.json_bytes_per_row"] = ratio(float64(cw.n), float64(nRows))
		}
	}
	return v, nil
}

// rewrite replays the engine's front end standalone: algebra tree, union
// normal form, and per branch the graph of supernodes, the well-designed
// check and the graph of join variables.
func rewrite(q *sparql.Query) error {
	tree, err := algebra.FromQuery(q)
	if err != nil {
		return err
	}
	branches, err := algebra.NormalizeUNF(tree)
	if err != nil {
		return err
	}
	for _, b := range branches {
		gosn, err := algebra.BuildGoSN(b.Tree)
		if err != nil {
			return err
		}
		algebra.CheckWellDesigned(b.Tree, gosn)
		if _, err := algebra.BuildGoJ(gosn.Patterns); err != nil {
			return err
		}
	}
	return nil
}
