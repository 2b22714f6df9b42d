package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	lbr "repro"
	"repro/internal/server"
)

// workloadSpec is one named workload. All four are closed loops: callers
// that wait for a reply before sending the next request.
type workloadSpec struct {
	Name    string
	HTTP    bool // over the in-process SPARQL endpoint; else Store.QueryContext
	Writes  bool // one extra client sends updates back-to-back
	Readers int  // read clients
}

var workloads = []workloadSpec{
	{Name: "analytic-scan", Readers: 1},
	{Name: "selective-lookup", Readers: 1},
	{Name: "http-dashboard", HTTP: true, Readers: 2},
	{Name: "http-mixed-rw", HTTP: true, Writes: true, Readers: 1},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// compactThreshold is Options.CompactThreshold on http-mixed-rw, fixed
// once so that at least three background compactions complete in a
// window; every other option of the store and the server keeps its zero
// value. The write-ahead log is fsynced per update — the program's only
// flush policy.
func compactThreshold(sc Scale) int {
	if sc == smokeScale {
		return 250
	}
	return 1000
}

// instance is one set-up of the program under test: a built store and,
// per the workload, a WAL and an HTTP endpoint on a loopback port.
type instance struct {
	spec    workloadSpec
	store   *lbr.Store
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	walPath string
}

// setUp is what setup_s times: N-Triples bytes in memory → store (and
// WAL, and server) ready.
func setUp(spec workloadSpec, ds *Dataset, dir string, n int) (*instance, error) {
	opts := lbr.Options{}
	if spec.Writes {
		opts.CompactThreshold = compactThreshold(ds.Scale)
	}
	in := &instance{spec: spec, store: lbr.NewStoreWithOptions(opts)}
	if _, err := in.store.LoadNTriples(bytes.NewReader(ds.NT)); err != nil {
		return nil, fmt.Errorf("load dataset: %w", err)
	}
	if err := in.store.Build(); err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	if spec.Writes {
		in.walPath = filepath.Join(dir, fmt.Sprintf("wal-%d.log", n))
		// The run's log starts empty: a file left by an earlier run would
		// be replayed into this store.
		if err := os.Remove(in.walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if _, err := in.store.OpenWAL(in.walPath); err != nil {
			return nil, err
		}
	}
	if spec.HTTP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.store.CloseWAL()
			return nil, fmt.Errorf("listen: %w", err)
		}
		// The server logs one line per failed request; the clients count
		// those failures themselves.
		in.srv = server.New(in.store, server.Config{Log: func(string, ...any) {}})
		in.hs = &http.Server{Handler: in.srv.Handler()}
		in.served = make(chan error, 1)
		go func() { in.served <- in.hs.Serve(ln) }()
		in.url = "http://" + ln.Addr().String()
	}
	return in, nil
}

// close stops the server, waits for its goroutine, and detaches the WAL.
func (in *instance) close() error {
	var errs []error
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := in.hs.Shutdown(ctx); err != nil {
			errs = append(errs, in.hs.Close())
		}
		cancel()
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		in.hs = nil
	}
	errs = append(errs, in.store.CloseWAL())
	return errors.Join(errs...)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// indexBytesPerTriple is the paper's compressed-index cost: the length of
// the SaveIndex snapshot over the number of triples.
func indexBytesPerTriple(st *lbr.Store) (float64, error) {
	var cw countingWriter
	if err := st.SaveIndex(&cw); err != nil {
		return 0, fmt.Errorf("save index: %w", err)
	}
	return float64(cw.n) / float64(st.Len()), nil
}

// gateLibrary is the correctness gate of the library path: for one query
// of every class — every template — the row multiset from Store.Query
// must equal the independent baseline executor's. It also records every
// query's answer, which later operations are checked against.
func gateLibrary(st *lbr.Store, sched *schedule) error {
	head := map[*Query]bool{}
	for _, q := range sched.classHeads {
		head[q] = true
	}
	for _, q := range sched.queries {
		res, err := st.Query(q.Text)
		if err != nil {
			return fmt.Errorf("gate: %s: %w", q.Class, err)
		}
		got := rowSetOfResult(res)
		q.Vars, q.Rows, q.Sum = res.Vars, got.Rows, got.Sum
		if !head[q] {
			continue
		}
		base, err := st.QueryBaseline(q.Text, lbr.VirtuosoLike)
		if err != nil {
			return fmt.Errorf("gate: %s: baseline: %w", q.Class, err)
		}
		if want := rowSetOfResult(base); !got.equal(want) {
			return fmt.Errorf("gate: %s: engine returned %d rows (sum %016x), baseline %d rows (sum %016x)\n%s",
				q.Class, got.Rows, got.Sum, want.Rows, want.Sum, q.Text)
		}
	}
	return nil
}

// gateHTTP fetches one query of every class in both formats, parses the
// whole document and compares it with the library's rows.
func gateHTTP(in *instance, classes []*Query) error {
	c := newHTTPClient(in.url)
	defer c.close()
	for _, q := range classes {
		for _, f := range []format{formatJSON, formatTSV} {
			resp, err := c.query(context.Background(), q.Text, f, f == formatTSV)
			if err != nil {
				return fmt.Errorf("gate: %s over HTTP: %w", q.Class, err)
			}
			if resp.status != http.StatusOK {
				return fmt.Errorf("gate: %s over HTTP: status %d: %s", q.Class, resp.status, truncate(resp.body, 200))
			}
			var got rowSet
			if f == formatJSON {
				got, err = rowSetOfJSON(resp.body)
			} else {
				got, err = rowSetOfTSV(resp.body)
			}
			if err != nil {
				return fmt.Errorf("gate: %s over HTTP: %w", q.Class, err)
			}
			want := rowSet{Vars: sortedCopy(q.Vars), Rows: q.Rows, Sum: q.Sum}
			if !got.equal(want) {
				return fmt.Errorf("gate: %s as %s over HTTP: %d rows (sum %016x), library %d rows (sum %016x)",
					q.Class, f, got.Rows, got.Sum, want.Rows, want.Sum)
			}
		}
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// resultCacheStats reads the server's result-cache counters, which only
// the /metrics document carries.
type resultCacheStats struct {
	Hits, Misses, Evictions, BytesUsed int64
}

func (in *instance) resultCacheStats() (resultCacheStats, error) {
	c := newHTTPClient(in.url)
	defer c.close()
	resp, err := c.get(context.Background(), "/metrics")
	if err != nil {
		return resultCacheStats{}, err
	}
	return parseResultCacheStats(resp.body)
}
