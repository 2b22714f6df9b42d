package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lbr "repro"
	"repro/internal/server"
)

// httpStatusError is a non-200 response, kept typed so the throughput
// loop can distinguish admission rejections from real failures.
type httpStatusError struct {
	code int
	body string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// ServerMeasurement is the end-to-end HTTP cost of one query: the full
// request → parse → execute → serialize → socket path, measured from the
// client side against a real (loopback) listener.
type ServerMeasurement struct {
	Dataset    string  `json:"dataset"`
	Query      string  `json:"query"`
	Format     string  `json:"format"`
	TMedianMS  float64 `json:"t_median_ms"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// ServerThroughput is the concurrent-load section of the server bench:
// every query of the workload issued round-robin from Concurrency client
// goroutines.
type ServerThroughput struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	WallMS      float64 `json:"wall_ms"`
	QPS         float64 `json:"qps"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	Rejected    int64   `json:"rejected"`
}

// ServerReport is the JSON document `lbrbench -table server -json` emits:
// machine shape, configuration, per-query latency, and throughput.
type ServerReport struct {
	CreatedAt     string              `json:"created_at"`
	NumCPU        int                 `json:"num_cpu"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	Workers       int                 `json:"workers"`
	MaxConcurrent int                 `json:"max_concurrent"`
	Runs          int                 `json:"runs"`
	Measurements  []ServerMeasurement `json:"measurements"`
	Throughput    ServerThroughput    `json:"throughput"`
}

// NewServerReport stamps a report with the current machine shape.
func NewServerReport(workers, maxConcurrent, runs int, ms []ServerMeasurement, tp ServerThroughput) ServerReport {
	return ServerReport{
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		MaxConcurrent: maxConcurrent,
		Runs:          runs,
		Measurements:  ms,
		Throughput:    tp,
	}
}

// WriteServerJSON serializes a report, indented for reviewable check-in.
func WriteServerJSON(w io.Writer, rep ServerReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RunServerTable measures the workload end to end over HTTP: a store built
// from the dataset's graph behind the SPARQL Protocol handler on a real
// loopback listener. Each query is fetched as TSV (the cheapest format to
// row-count on the client) runs times after one warm-up, reporting the
// median; then the whole workload is replayed concurrently for the
// throughput figure. maxConcurrent 0 resolves to 4× workers, as the
// server default does.
func RunServerTable(ds *Dataset, workers, maxConcurrent, runs int) ([]ServerMeasurement, ServerThroughput, error) {
	var tp ServerThroughput
	st := lbr.NewStoreWithOptions(lbr.Options{Workers: workers})
	st.LoadGraph(ds.Graph)
	if err := st.Build(); err != nil {
		return nil, tp, err
	}
	// The result cache is disabled: the bench repeats identical queries,
	// and with the cache on every timed run after the warm-up would be a
	// byte replay — this table measures the engine + serialization path,
	// and its numbers must stay comparable with the pre-cache baseline.
	// (The warm-vs-replay comparison lives in -table cache instead.)
	srv := server.New(st, server.Config{MaxConcurrent: maxConcurrent, ResultCacheBudget: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if runs < 1 {
		runs = 1
	}
	var ms []ServerMeasurement
	for _, spec := range ds.Queries {
		m := ServerMeasurement{Dataset: ds.Name, Query: spec.ID, Format: "tsv"}
		// Warm-up establishes the row/byte counts.
		rows, bytes, _, err := fetchTSV(client, ts.URL, spec.SPARQL)
		if err != nil {
			return nil, tp, fmt.Errorf("%s/%s: %w", ds.Name, spec.ID, err)
		}
		m.Rows, m.Bytes = rows, bytes
		times := make([]float64, runs)
		for i := 0; i < runs; i++ {
			_, _, elapsed, err := fetchTSV(client, ts.URL, spec.SPARQL)
			if err != nil {
				return nil, tp, fmt.Errorf("%s/%s run %d: %w", ds.Name, spec.ID, i, err)
			}
			times[i] = float64(elapsed.Microseconds()) / 1000.0
		}
		sort.Float64s(times)
		m.TMedianMS = times[len(times)/2]
		if m.TMedianMS > 0 {
			m.RowsPerSec = float64(m.Rows) / (m.TMedianMS / 1000.0)
		}
		ms = append(ms, m)
	}

	tp, err := runServerThroughput(client, ts.URL, ds, workers, runs, srv)
	return ms, tp, err
}

// runServerThroughput replays the workload from 2×workers concurrent
// clients, runs rounds each, measuring aggregate queries and rows per
// second.
func runServerThroughput(client *http.Client, baseURL string, ds *Dataset, workers, runs int, srv *server.Server) (ServerThroughput, error) {
	concurrency := 2 * workers
	if concurrency < 2 {
		concurrency = 2
	}
	tp := ServerThroughput{Concurrency: concurrency}
	var (
		wg       sync.WaitGroup
		rows     atomic.Int64
		firstErr atomic.Value
	)
	reqs := concurrency * runs * len(ds.Queries)
	tp.Requests = reqs
	before := srv.Metrics().Snapshot().Rejected
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < runs*len(ds.Queries); i++ {
				spec := ds.Queries[(c+i)%len(ds.Queries)]
				r, _, _, err := fetchTSV(client, baseURL, spec.SPARQL)
				if err != nil {
					// Admission rejections are a measured outcome of an
					// over-subscribed run (reported via tp.Rejected), not
					// a bench failure.
					var se *httpStatusError
					if errors.As(err, &se) && se.code == http.StatusServiceUnavailable {
						continue
					}
					firstErr.CompareAndSwap(nil, err)
					return
				}
				rows.Add(r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	tp.WallMS = float64(wall.Microseconds()) / 1000.0
	if wall > 0 {
		tp.QPS = float64(reqs) / wall.Seconds()
		tp.RowsPerSec = float64(rows.Load()) / wall.Seconds()
	}
	tp.Rejected = srv.Metrics().Snapshot().Rejected - before
	if err, _ := firstErr.Load().(error); err != nil {
		return tp, err
	}
	return tp, nil
}

// fetchTSV GETs one query as TSV and drains the body, returning the
// solution count (lines minus the header), the body size, and the
// end-to-end wall time.
func fetchTSV(client *http.Client, baseURL, query string) (rows, bytes int64, elapsed time.Duration, err error) {
	req, err := http.NewRequest(http.MethodGet, baseURL+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Accept", "text/tab-separated-values")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, 0, &httpStatusError{code: resp.StatusCode, body: string(body)}
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var lines int64
	buf := make([]byte, 64<<10)
	for {
		n, rerr := br.Read(buf)
		bytes += int64(n)
		for _, b := range buf[:n] {
			if b == '\n' {
				lines++
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, 0, rerr
		}
	}
	elapsed = time.Since(start)
	if lines > 0 {
		rows = lines - 1 // header line
	}
	return rows, bytes, elapsed, nil
}

// FprintServerTable renders the per-query section for the terminal.
func FprintServerTable(w io.Writer, title string, ms []ServerMeasurement, tp ServerThroughput) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %-8s %12s %10s %12s %14s\n",
		"Dataset", "Query", "median(ms)", "rows", "bytes", "rows/s")
	for _, m := range ms {
		fmt.Fprintf(w, "%-10s %-8s %12.2f %10d %12d %14.0f\n",
			m.Dataset, m.Query, m.TMedianMS, m.Rows, m.Bytes, m.RowsPerSec)
	}
	fmt.Fprintf(w, "throughput: %d clients, %d requests in %.1fms = %.1f q/s, %.0f rows/s (rejected %d)\n",
		tp.Concurrency, tp.Requests, tp.WallMS, tp.QPS, tp.RowsPerSec, tp.Rejected)
}
