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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// errUsage reports a usage error that has already been printed.
var errUsage = errors.New("usage")

// run is the command with its arguments and streams passed in. It returns
// the exit status: 0 on success, 2 on a usage error, and 1 on any other
// error, which it prints as one line under one "lbr: " prefix (the
// library's own errors already carry it).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	err := execute(args, stdin, stdout, stderr)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "lbr: ") {
		msg = "lbr: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 1
}

// execute parses args, loads or opens the store, and runs the command.
func execute(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "N-Triples file to load")
		indexPath = fs.String("index", "", "binary index snapshot to open (alternative to -data)")
		saveIndex = fs.String("saveindex", "", "write the built index snapshot to this file and exit")
		query     = fs.String("query", "", "SPARQL query text")
		queryFile = fs.String("queryfile", "", "file containing the SPARQL query")
		explain   = fs.Bool("explain", false, "print the static plan, execute the query traced, and print the span-tree JSON instead of rows")
		stats     = fs.Bool("stats", false, "print dataset characteristics and exit")
		timing    = fs.Bool("timing", false, "print Tinit/Tprune/Ttotal after the results")
		base      = fs.String("baseline", "", "run on a baseline engine instead: monetdb|virtuoso")
		maxRows   = fs.Int("maxrows", 0, "print at most this many rows (0 = all)")
		workers   = fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		timeout   = fs.Duration("timeout", 0, "abort the query after this long, e.g. 30s (0 = no bound)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}

	if *dataPath == "" && *indexPath == "" {
		fmt.Fprintln(stderr, "lbr: -data or -index is required")
		fs.Usage()
		return errUsage
	}

	var store *lbr.Store
	loadStart := time.Now()
	if *indexPath != "" {
		f, err := os.Open(*indexPath)
		if err != nil {
			return err
		}
		store, err = lbr.OpenIndexWithOptions(f, lbr.Options{Workers: *workers})
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "opened index with %d triples in %s\n",
			store.Len(), time.Since(loadStart).Round(time.Millisecond))
	} else {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		store = lbr.NewStoreWithOptions(lbr.Options{Workers: *workers})
		n, err := store.LoadNTriples(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := store.Build(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loaded %d triples and built index in %s\n",
			n, time.Since(loadStart).Round(time.Millisecond))
	}

	if *saveIndex != "" {
		out, err := os.Create(*saveIndex)
		if err != nil {
			return err
		}
		if err := store.SaveIndex(out); err != nil {
			out.Close() // the save error is the one to report
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		info, _ := os.Stat(*saveIndex)
		fmt.Fprintf(stderr, "wrote index snapshot %s (%d bytes)\n", *saveIndex, info.Size())
		return nil
	}

	if *stats {
		st, err := store.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "triples=%d subjects=%d predicates=%d objects=%d shared=%d\n",
			st.Triples, st.Subjects, st.Predicates, st.Objects, st.Shared)
		return nil
	}

	src := *query
	if src == "" && *queryFile != "" {
		raw, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		src = string(raw)
	}
	if src == "" {
		raw, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		src = string(raw)
	}
	if src == "" {
		fmt.Fprintln(stderr, "lbr: no query given")
		return errUsage
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
			return err
		}
		fmt.Fprint(stdout, plan)
		// The static plan answers "what would run"; the traced execution
		// answers "what did it cost": per-branch planner decisions, cache
		// outcomes, prune levels, and the join, as a span tree.
		res, root, err := store.QueryTrace(ctx, src)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(root.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		fmt.Fprintf(stderr, "%d rows in %s\n", res.Len(), res.Stats.Total.Round(time.Microsecond))
		return nil
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
		return fmt.Errorf("unknown baseline %q", *base)
	}
	if err != nil {
		return err
	}

	printed := 0
	for i, v := range res.Vars {
		if i > 0 {
			fmt.Fprint(stdout, "\t")
		}
		fmt.Fprint(stdout, "?"+v)
	}
	fmt.Fprintln(stdout)
	for i := 0; i < res.Len(); i++ {
		if *maxRows > 0 && printed >= *maxRows {
			fmt.Fprintf(stdout, "... (%d more rows)\n", res.Len()-printed)
			break
		}
		row := res.Row(i)
		for k, t := range row {
			if k > 0 {
				fmt.Fprint(stdout, "\t")
			}
			if t.IsZero() {
				fmt.Fprint(stdout, "NULL")
			} else {
				fmt.Fprint(stdout, t.String())
			}
		}
		fmt.Fprintln(stdout)
		printed++
	}
	fmt.Fprintf(stderr, "%d rows\n", res.Len())
	if *timing && *base == "" {
		st := res.Stats
		fmt.Fprintf(stderr, "Tinit=%s Tprune=%s Ttotal=%s initial=%d pruned=%d bestmatch=%v\n",
			st.Init, st.Prune, st.Total, st.InitialTriples, st.AfterPruning, st.BestMatch)
	}
	return nil
}
