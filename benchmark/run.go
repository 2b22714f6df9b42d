package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	lbr "repro"
)

// runConfig is one invocation: one workload, one seed.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // the measured window
	Trace    bool
	Smoke    bool          // the 1/16 dataset for every workload
	Warm     time.Duration // untimed, so caches fill and lazy set-up finishes
	Setups   int           // set-up repetitions; setup_s is their median
	Dir      string        // scratch directory inside the checkout (WAL files)
	Out      string        // where a traced run writes its spans; "" for nowhere
}

// runReport is everything one invocation measured.
type runReport struct {
	Config      runConfig
	Dataset     *Dataset
	Correct     bool
	Attempted   int
	Failed      int
	Problems    []string // what made the run incorrect
	EndToEnd    values   // untraced runs
	PerLayer    values   // traced runs
	Samples     map[string]int
	Layers      []layerShare // traced runs: self time by span name
	Classes     []classLatency
	SetupRuns   []float64
	Phases      []phase // wall time of each part of the run, for the budget
	WindowS     float64
	Compactions int
}

type phase struct {
	Name    string
	Seconds float64
}

func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func run(cfg runConfig) (*runReport, error) {
	spec, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	rep := &runReport{Config: cfg, Correct: true, Samples: map[string]int{}}
	mark := time.Now()
	lap := func(name string) {
		rep.Phases = append(rep.Phases, phase{name, time.Since(mark).Seconds()})
		mark = time.Now()
	}

	scale := fullScale
	switch {
	case cfg.Smoke:
		scale = smokeScale
	case spec.Writes:
		scale = writeScale
	}
	ds, err := generateDataset(cfg.Seed, scale)
	if err != nil {
		return nil, err
	}
	rep.Dataset = ds
	if err := ds.checkFingerprint(cfg.Seed); err != nil {
		return nil, err
	}
	sched := scheduleFor(spec, ds, cfg.Seed)
	lap("generate")

	// Set-up, several times over; the last one is the instance measured.
	var in *instance
	for i := 0; i < cfg.Setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		if in, err = setUp(spec, ds, cfg.Dir, i); err != nil {
			return nil, err
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	indexBPT, err := indexBytesPerTriple(in.store)
	if err != nil {
		return nil, err
	}

	lap("set-up")

	// Correctness gate, before any timing.
	if err := gateLibrary(in.store, sched); err != nil {
		return nil, err
	}
	if spec.HTTP {
		if err := gateHTTP(in, sched.classHeads); err != nil {
			return nil, err
		}
	}

	lap("gate")

	var us *updateStream
	if spec.Writes {
		if us, err = newUpdateStream(ds, cfg.Seed); err != nil {
			return nil, err
		}
	}
	var cursor atomic.Int64
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if _, err := runWindow(in, sched, &cursor, us, cfg.Warm, false); err != nil {
		return nil, err
	}

	account := func(s windowSummary) {
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		if s.failed > 0 {
			rep.Correct = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed or returned a wrong result", s.failed, s.attempted))
		}
		if s.reads == 0 {
			rep.Correct = false
			rep.Problems = append(rep.Problems, "no read completed")
		}
	}

	lap("warm-up")

	if !cfg.Trace {
		w, err := runWindow(in, sched, &cursor, us, window, false)
		if err != nil {
			return nil, err
		}
		s := summarize(w)
		account(s)
		rep.WindowS = s.seconds
		rep.Compactions = int(w.after.wal.Compactions - w.before.wal.Compactions)
		if spec.Writes {
			// A compaction still building when the window ends would be
			// counted into the heap or not by luck; let it finish.
			if err := in.store.Compact(); err != nil {
				return nil, err
			}
		}
		rep.EndToEnd = endToEndValues(s, median(rep.SetupRuns), liveHeapMiB(), indexBPT)
		rep.Classes = s.byClass
		rep.Samples["reads"], rep.Samples["writes"], rep.Samples["setups"] = s.reads, s.writes, len(rep.SetupRuns)
		if pct, val, ok := tailPercentile(s.readMS); ok {
			rep.Samples["read_tail_pct"] = pct
			rep.EndToEnd["read_tail_ms"] = val // printed, not part of the contract
		}
	} else {
		// An untraced half, then a traced half: their ratio is the cost of
		// tracing, and the traced half carries the per-layer numbers.
		ref, err := runWindow(in, sched, &cursor, us, window/2, false)
		if err != nil {
			return nil, err
		}
		refSum := summarize(ref)
		account(refSum)
		w, err := runWindow(in, sched, &cursor, us, window/2, true)
		if err != nil {
			return nil, err
		}
		s := summarize(w)
		account(s)
		rep.WindowS = s.seconds
		rep.Compactions = int(w.after.wal.Compactions - w.before.wal.Compactions)
		rep.PerLayer = windowLayerValues(w, s)
		rep.PerLayer["trace.overhead_pct"] = 100 * (1 - ratio(s.opsPerS, refSum.opsPerS))
		rep.PerLayer["datagen.generate_s"] = ds.GenerateS
		rep.PerLayer["datagen.triples"] = float64(ds.Triples)
		rep.Classes = s.byClass
		rep.Samples["reads"], rep.Samples["writes"] = s.reads, s.writes
		rep.Layers = summarizeSpans(w.spans)
		if cfg.Out != "" {
			if err := writeSpans(cfg.Out, w.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}

	lap("window")

	// The write path's own checks: the store holds exactly what the
	// acknowledged updates say, and so does a second store rebuilt from
	// the dataset plus the write-ahead log.
	var updateTexts []string
	if cfg.Trace {
		rep.PerLayer["lbr.apply_update_ms"], rep.PerLayer["lbr.wal_replay_s"] = 0, 0
	}
	if spec.Writes {
		if cfg.Trace {
			updateTexts, rep.PerLayer["lbr.apply_update_ms"] = applyUpdatesDirectly(in.store, us)
		}
		replayS, err := checkDurability(in, ds, us)
		if err != nil {
			return nil, err
		}
		if cfg.Trace {
			rep.PerLayer["lbr.wal_replay_s"] = replayS
		}
	}
	if cfg.Trace {
		if err := addProbes(rep, in.store, ds, cfg.Seed, sched, updateTexts); err != nil {
			return nil, err
		}
	}

	lap("checks and probes")
	err = in.close()
	in = nil
	return rep, err
}

// addProbes runs the kernel probes and merges their metrics in.
func addProbes(rep *runReport, st *lbr.Store, ds *Dataset, seed int64, sched *schedule, updates []string) error {
	var materialized []*lbr.Result
	for _, q := range analyticQueries() {
		res, err := st.Query(q.Text)
		if err != nil {
			return fmt.Errorf("probe: materialize %s: %w", q.Class, err)
		}
		materialized = append(materialized, res)
	}
	pv, err := probeKernels(ds, seed, sched.classHeads, updates, materialized)
	if err != nil {
		return err
	}
	for k, v := range pv {
		rep.PerLayer[k] = v
	}
	return nil
}

// applyUpdatesDirectly sends the next updates of the stream through the
// library's ApplyUpdate instead of the endpoint; the difference between
// write_p50_ms and this is the server's share of a write.
func applyUpdatesDirectly(st *lbr.Store, us *updateStream) (texts []string, medianMS float64) {
	const n = 40
	var ms []float64
	for i := 0; i < n; i++ {
		u := us.next()
		t0 := time.Now()
		res, err := st.ApplyUpdate(u.Text)
		d := time.Since(t0)
		if err != nil || res.Inserted != len(u.Inserted) || res.Deleted != len(u.Deleted) {
			continue // the durability check below reports the divergence
		}
		us.ack(u)
		ms = append(ms, durMS(d))
		texts = append(texts, u.Text)
	}
	return texts, median(ms)
}

// checkDurability compares the live store with the shadow of the
// acknowledged updates, then replays the run's write-ahead log into a
// second store and compares that too. It reports the replay time.
//
// The second store starts from the dataset's staff telephone triples —
// the only dataset triples the updates delete — rather than the whole
// dataset: OpenWAL replays one triple at a time and Graph.RemoveAll is
// linear in the graph, so at the parent commit a replay over the whole
// dataset costs about 0.1 s per deleted triple, minutes per run. An
// in-process run cannot discard writes the operating system has cached
// but not flushed, so this proves replay, not power-loss safety.
func checkDurability(in *instance, ds *Dataset, us *updateStream) (replayS float64, err error) {
	if err := in.store.Compact(); err != nil { // let the background compactor finish
		return 0, fmt.Errorf("durability: compact: %w", err)
	}
	live, err := sumOfStore(in.store)
	if err != nil {
		return 0, err
	}
	if live != us.Shadow {
		return 0, fmt.Errorf("durability: the store holds %d triples (sum %016x), the acknowledged updates imply %d (sum %016x)",
			live.N, live.Sum, us.Shadow.N, us.Shadow.Sum)
	}
	if err := in.store.CloseWAL(); err != nil {
		return 0, err
	}
	second := lbr.NewStore()
	second.AddAll(ds.phoneTriples())
	t0 := time.Now()
	if _, err := second.OpenWAL(in.walPath); err != nil {
		return 0, fmt.Errorf("durability: replay: %w", err)
	}
	replayS = time.Since(t0).Seconds()
	defer second.CloseWAL()
	replayed, err := sumOfStore(second)
	if err != nil {
		return 0, err
	}
	if replayed != us.Touched {
		return 0, fmt.Errorf("durability: replaying the WAL gives %d triples (sum %016x), the acknowledged updates imply %d (sum %016x)",
			replayed.N, replayed.Sum, us.Touched.N, us.Touched.Sum)
	}
	return replayS, nil
}
