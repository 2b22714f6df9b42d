// Command lbr loads an N-Triples file and executes SPARQL queries against
// it with the Left Bit Right engine.
//
// Usage:
//
//	lbr -data graph.nt -query 'SELECT * WHERE { ?s <p> ?o . }'
//	lbr -data graph.nt -queryfile q.rq -explain
//	lbr -data graph.nt -stats
//	echo 'SELECT ...' | lbr -data graph.nt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "N-Triples file to load")
		indexPath = flag.String("index", "", "binary index snapshot to open (alternative to -data)")
		saveIndex = flag.String("saveindex", "", "write the built index snapshot to this file and exit")
		query     = flag.String("query", "", "SPARQL query text")
		queryFile = flag.String("queryfile", "", "file containing the SPARQL query")
		explain   = flag.Bool("explain", false, "print the static plan, execute the query traced, and print the span-tree JSON instead of rows")
		stats     = flag.Bool("stats", false, "print dataset characteristics and exit")
		timing    = flag.Bool("timing", false, "print Tinit/Tprune/Ttotal after the results")
		base      = flag.String("baseline", "", "run on a baseline engine instead: monetdb|virtuoso")
		maxRows   = flag.Int("maxrows", 0, "print at most this many rows (0 = all)")
		workers   = flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "abort the query after this long, e.g. 30s (0 = no bound)")
	)
	flag.Parse()

	if *dataPath == "" && *indexPath == "" {
		fmt.Fprintln(os.Stderr, "lbr: -data or -index is required")
		flag.Usage()
		os.Exit(2)
	}

	var store *lbr.Store
	loadStart := time.Now()
	if *indexPath != "" {
		f, err := os.Open(*indexPath)
		if err != nil {
			fatal(err)
		}
		store, err = lbr.OpenIndexWithOptions(f, lbr.Options{Workers: *workers})
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "opened index with %d triples in %s\n",
			store.Len(), time.Since(loadStart).Round(time.Millisecond))
	} else {
		f, err := os.Open(*dataPath)
		if err != nil {
			fatal(err)
		}
		store = lbr.NewStoreWithOptions(lbr.Options{Workers: *workers})
		n, err := store.LoadNTriples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := store.Build(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d triples and built index in %s\n",
			n, time.Since(loadStart).Round(time.Millisecond))
	}

	if *saveIndex != "" {
		out, err := os.Create(*saveIndex)
		if err != nil {
			fatal(err)
		}
		if err := store.SaveIndex(out); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		info, _ := os.Stat(*saveIndex)
		fmt.Fprintf(os.Stderr, "wrote index snapshot %s (%d bytes)\n", *saveIndex, info.Size())
		return
	}

	if *stats {
		st, err := store.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("triples=%d subjects=%d predicates=%d objects=%d shared=%d\n",
			st.Triples, st.Subjects, st.Predicates, st.Objects, st.Shared)
		return
	}

	src := *query
	if src == "" && *queryFile != "" {
		raw, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(raw)
	}
	if src == "" {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		src = string(raw)
	}
	if src == "" {
		fmt.Fprintln(os.Stderr, "lbr: no query given")
		os.Exit(2)
	}

	// A runaway query is bounded through the engine's context plumbing:
	// the deadline aborts init, prune, and join alike.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *explain {
		plan, err := store.Explain(src)
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
		// The static plan answers "what would run"; the traced execution
		// answers "what did it cost": per-branch planner decisions, cache
		// outcomes, prune levels, and the join, as a span tree.
		res, root, err := store.QueryTrace(ctx, src)
		if err != nil {
			fatal(err)
		}
		out, err := json.MarshalIndent(root.Snapshot(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		fmt.Fprintf(os.Stderr, "%d rows in %s\n", res.Len(), res.Stats.Total.Round(time.Microsecond))
		return
	}

	var res *lbr.Result
	var err error
	switch *base {
	case "":
		res, err = store.QueryContext(ctx, src)
	case "monetdb":
		res, err = store.QueryBaseline(src, lbr.MonetDBLike)
	case "virtuoso":
		res, err = store.QueryBaseline(src, lbr.VirtuosoLike)
	default:
		fatal(fmt.Errorf("unknown baseline %q", *base))
	}
	if err != nil {
		fatal(err)
	}

	printed := 0
	for i, v := range res.Vars {
		if i > 0 {
			fmt.Print("\t")
		}
		fmt.Print("?" + v)
	}
	fmt.Println()
	for i := 0; i < res.Len(); i++ {
		if *maxRows > 0 && printed >= *maxRows {
			fmt.Printf("... (%d more rows)\n", res.Len()-printed)
			break
		}
		row := res.Row(i)
		for k, t := range row {
			if k > 0 {
				fmt.Print("\t")
			}
			if t.IsZero() {
				fmt.Print("NULL")
			} else {
				fmt.Print(t.String())
			}
		}
		fmt.Println()
		printed++
	}
	fmt.Fprintf(os.Stderr, "%d rows\n", res.Len())
	if *timing && *base == "" {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "Tinit=%s Tprune=%s Ttotal=%s initial=%d pruned=%d bestmatch=%v\n",
			st.Init, st.Prune, st.Total, st.InitialTriples, st.AfterPruning, st.BestMatch)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbr:", err)
	os.Exit(1)
}
