// Command lbrserver serves a Left Bit Right store over HTTP as a SPARQL
// 1.1 Protocol endpoint, streaming SELECT results in the four W3C result
// formats with Accept-header content negotiation.
//
// Usage:
//
//	lbrserver -data graph.nt -addr :8080
//	lbrserver -index graph.lbr -addr 127.0.0.1:0 -timeout 30s -max-concurrent 32
//
//	curl 'http://localhost:8080/sparql?query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+.+%7D'
//	curl -H 'Accept: text/csv' --data-urlencode 'query=ASK { ?s ?p ?o . }' http://localhost:8080/sparql
//
// The endpoint is GET/POST /sparql; POST bodies may also carry SPARQL 1.1
// Update requests (application/sparql-update or a form update= field),
// applied to a delta overlay over the base index and optionally made
// durable with -wal. /healthz is a liveness probe and /metrics reports
// queries served, updates applied, in-flight, rows streamed, the snapshot
// generation, and latency buckets as JSON. SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "N-Triples file to load and index")
		indexPath   = flag.String("index", "", "binary index snapshot to open (alternative to -data)")
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query timeout (0 = unlimited)")
		maxConc     = flag.Int("max-concurrent", 0, "max queries executing at once (0 = 4x workers)")
		workers     = flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		cacheBudget = flag.Int64("cache-budget", 0,
			"byte bound of the store's cross-query BitMat materialization cache (0 = 64 MiB default, negative = disabled)")
		resultCache = flag.Int64("result-cache", 0,
			"byte bound of the server's result cache keyed on (index snapshot, query, format) (0 = 16 MiB default, negative = disabled)")
		walPath = flag.String("wal", "",
			"write-ahead log file for SPARQL updates; replayed on startup, so a killed server recovers uncompacted writes (empty = updates are not durable)")
		compactThreshold = flag.Int("compact-threshold", 0,
			"delta entries (inserts+deletes since the last base build) that trigger a background compaction (0 = only explicit compaction)")
		maxConcUpdates = flag.Int("max-concurrent-updates", 0, "max updates executing at once (0 = 1)")
		slowLog        = flag.String("slow-log", "",
			"slow-query log destination: a file path (appended), or - for stderr; one JSON line with the query hash and span trace per slow query (empty = disabled)")
		slowThreshold = flag.Duration("slow-threshold", 500*time.Millisecond,
			"queries at least this slow are written to -slow-log")
		pprofAddr = flag.String("pprof-addr", "",
			"listen address for the net/http/pprof profiling endpoints, kept off the public mux (empty = disabled)")
	)
	flag.Parse()

	if (*dataPath == "") == (*indexPath == "") {
		fmt.Fprintln(os.Stderr, "lbrserver: exactly one of -data or -index is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := lbr.Options{Workers: *workers, CacheBudget: *cacheBudget, CompactThreshold: *compactThreshold}
	if *slowLog != "" {
		w, closer, err := openSlowLog(*slowLog)
		if err != nil {
			fatal(err)
		}
		if closer != nil {
			defer closer()
		}
		opts.SlowQueryLog = w
		opts.SlowQueryThreshold = *slowThreshold
		fmt.Fprintf(os.Stderr, "lbrserver: logging queries slower than %s to %s\n", *slowThreshold, *slowLog)
	}
	store, err := loadStore(*dataPath, *indexPath, opts)
	if err != nil {
		fatal(err)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			fatal(err)
		}
	}
	if *walPath != "" {
		replayed, err := store.OpenWAL(*walPath)
		if err != nil {
			fatal(err)
		}
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "lbrserver: replayed %d uncompacted updates from %s\n", replayed, *walPath)
		}
		defer store.CloseWAL()
	}

	srv := server.New(store, server.Config{
		Timeout:              *timeout,
		MaxConcurrent:        *maxConc,
		ResultCacheBudget:    *resultCache,
		MaxConcurrentUpdates: *maxConcUpdates,
	})
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Transport-level hygiene, distinct from the per-query -timeout:
		// a client that dribbles request headers or parks an idle
		// connection must not hold a goroutine outside the admission
		// semaphore's protection. Write timeouts are deliberately absent —
		// result streaming is legitimately long-lived and bounded by the
		// query timeout instead.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address matters when -addr requested an ephemeral port
	// (the serve-smoke harness does); announce it before serving.
	fmt.Fprintf(os.Stderr, "lbrserver: listening on %s (timeout=%s, max-concurrent=%d, workers=%d)\n",
		ln.Addr(), *timeout, srv.MaxConcurrent(), store.Options().EffectiveWorkers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "lbrserver: shutting down, draining in-flight queries")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "lbrserver: forced shutdown:", err)
			httpSrv.Close()
		}
	}
	snap := srv.Metrics().Snapshot()
	fmt.Fprintf(os.Stderr, "lbrserver: served %d queries (%d rows, %d errors) and %d updates (+%d/-%d triples)\n",
		snap.QueriesServed, snap.RowsStreamed, snap.QueryErrors,
		snap.UpdatesServed, snap.TriplesIns, snap.TriplesDel)
}

// openSlowLog resolves the -slow-log destination: "-" is stderr, anything
// else a file opened for appending. The returned closer is nil for stderr.
func openSlowLog(dest string) (io.Writer, func() error, error) {
	if dest == "-" {
		return os.Stderr, nil, nil
	}
	f, err := os.OpenFile(dest, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open slow-query log: %w", err)
	}
	return f, f.Close, nil
}

// servePprof exposes the net/http/pprof endpoints on their own listener,
// deliberately separate from the public mux: profiling handlers reveal
// internals (heap contents, goroutine stacks) and must be bindable to
// localhost while /sparql faces the world.
func servePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "lbrserver: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lbrserver: pprof server:", err)
		}
	}()
	return nil
}

func loadStore(dataPath, indexPath string, opts lbr.Options) (*lbr.Store, error) {
	start := time.Now()
	if indexPath != "" {
		f, err := os.Open(indexPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		store, err := lbr.OpenIndexWithOptions(f, opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "lbrserver: opened index with %d triples in %s\n",
			store.Len(), time.Since(start).Round(time.Millisecond))
		return store, nil
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store := lbr.NewStoreWithOptions(opts)
	n, err := store.LoadNTriples(f)
	if err != nil {
		return nil, err
	}
	if err := store.Build(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "lbrserver: loaded %d triples and built index in %s\n",
		n, time.Since(start).Round(time.Millisecond))
	return store, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbrserver:", err)
	os.Exit(1)
}
