package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	lbr "repro"
	"repro/internal/results"
	"repro/internal/server"
	"repro/internal/sparql"
)

// opRec is one completed operation of a window.
type opRec struct {
	start, end int64 // ns since the window began; end is the last byte or row
	class      int32 // schedule class of a read, -1 for a write
	rows       int32
	wire       int32 // response bytes as sent (HTTP)
	body       int32 // response bytes decoded (HTTP)
	ok         bool
	hit        bool // HTTP read served from the result cache
	gzip       bool
}

// stageSums accumulates the engine's own stage accounting (Result.Stats)
// over the library queries a client ran.
type stageSums struct {
	queries                         int
	init, prune, join, merge, total time.Duration
	wall                            time.Duration // of the calls that returned those stats
	initialTriples, afterPruning    int64
	// Paired replays of HTTP misses (traced windows only).
	replays                     int
	replayWall, replaySerialize time.Duration
	replayMissRTT               time.Duration // round trips of the misses that were replayed
}

func (s *stageSums) observe(st lbr.Stats, wall time.Duration) {
	s.queries++
	s.init += st.Init
	s.prune += st.Prune
	s.join += st.Join
	s.merge += st.Merge
	s.total += st.Total
	s.wall += wall
	s.initialTriples += st.InitialTriples
	s.afterPruning += st.AfterPruning
}

func (s *stageSums) add(o *stageSums) {
	s.queries += o.queries
	s.init += o.init
	s.prune += o.prune
	s.join += o.join
	s.merge += o.merge
	s.total += o.total
	s.wall += o.wall
	s.initialTriples += o.initialTriples
	s.afterPruning += o.afterPruning
	s.replays += o.replays
	s.replayWall += o.replayWall
	s.replaySerialize += o.replaySerialize
	s.replayMissRTT += o.replayMissRTT
}

// clientState is what one client goroutine owns during a window.
type clientState struct {
	recs   []opRec
	stages stageSums
	spans  *spanBuf // nil when the window is not traced
	http   *httpClient
	misses int // HTTP misses seen, for sampling the paired replays
	opSeq  int64
}

// counters is a snapshot of everything the program and the process
// report about themselves; window metrics are differences of two.
type counters struct {
	cache    lbr.CacheStats
	wal      lbr.WALStats
	gen      uint64
	srv      server.Snapshot
	rc       resultCacheStats
	mem      runtime.MemStats
	cpu      time.Duration
	walBytes int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (in *instance) snapshot() (counters, error) {
	c := counters{
		cache: in.store.CacheStats(),
		wal:   in.store.WALStats(),
		gen:   in.store.Generation(),
		cpu:   processCPU(),
	}
	runtime.ReadMemStats(&c.mem)
	if in.srv != nil {
		c.srv = in.srv.Metrics().Snapshot()
		var err error
		if c.rc, err = in.resultCacheStats(); err != nil {
			return c, err
		}
	}
	if in.walPath != "" {
		if fi, err := os.Stat(in.walPath); err == nil {
			c.walBytes = fi.Size()
		}
	}
	return c, nil
}

// window is one measured (or warm-up) interval of a workload.
type window struct {
	spec     workloadSpec
	sched    *schedule
	began    time.Time
	readers  []*clientState
	writer   *clientState
	elapsed  []time.Duration // per client, readers first: start → its last completion
	before   counters
	after    counters
	deltaMax int // largest DeltaSize sampled during the window
	spans    []*spanBuf
}

// replayEvery is how many HTTP misses pass between paired library
// replays in a traced window.
const replayEvery = 4

// runWindow drives the workload's clients for d. The read clients share
// the schedule's cursor, which carries over from window to window.
func runWindow(in *instance, sched *schedule, cursor *atomic.Int64, us *updateStream, d time.Duration, traced bool) (*window, error) {
	w := &window{spec: in.spec, sched: sched}
	var err error
	if w.before, err = in.snapshot(); err != nil {
		return nil, err
	}
	nClients := in.spec.Readers
	if in.spec.Writes {
		nClients++
	}
	w.elapsed = make([]time.Duration, nClients)
	ctx := context.Background()
	w.began = time.Now()
	deadline := w.began.Add(d)

	newClient := func() *clientState {
		cs := &clientState{}
		if traced {
			cs.spans = newSpanBuf(w.began)
			w.spans = append(w.spans, cs.spans)
		}
		if in.spec.HTTP {
			cs.http = newHTTPClient(in.url)
		}
		return cs
	}
	var wg sync.WaitGroup
	for i := 0; i < in.spec.Readers; i++ {
		cs := newClient()
		w.readers = append(w.readers, cs)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				k := cursor.Load()
				if int(k)%sched.round == 0 && !time.Now().Before(deadline) {
					break
				}
				k = cursor.Add(1) - 1
				op := sched.ops[int(k)%len(sched.ops)]
				if in.spec.HTTP {
					httpRead(ctx, in, cs, op, w.began)
				} else {
					libraryRead(ctx, in.store, cs, op, w.began)
				}
			}
			if n := len(cs.recs); n > 0 {
				w.elapsed[i] = time.Duration(cs.recs[n-1].end)
			}
		}(i)
	}
	if in.spec.Writes {
		cs := newClient()
		w.writer = cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				httpWrite(ctx, cs, us, w.began)
			}
			if n := len(cs.recs); n > 0 {
				w.elapsed[nClients-1] = time.Duration(cs.recs[n-1].end)
			}
		}()
		// The delta sampler is not a client: it reads one counter of the
		// store twenty times a second.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for now := range tick.C {
				if n := in.store.DeltaSize(); n > w.deltaMax {
					w.deltaMax = n
				}
				if !now.Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, cs := range append(append([]*clientState(nil), w.readers...), w.writer) {
		if cs != nil && cs.http != nil {
			cs.http.close()
		}
	}
	if w.after, err = in.snapshot(); err != nil {
		return nil, err
	}
	return w, nil
}

var stageNames = []string{"engine.init", "engine.prune", "engine.join", "engine.merge"}

func stageDurs(st lbr.Stats) []time.Duration {
	return []time.Duration{st.Init, st.Prune, st.Join, st.Merge}
}

// libraryRead is one read on the library path, its result fully
// materialized. Traced, the benchmark also parses the text itself so that
// the parser has a span of its own: that second parse is tracing cost.
func libraryRead(ctx context.Context, st *lbr.Store, cs *clientState, op readOp, epoch time.Time) {
	cs.opSeq++
	t0 := time.Now()
	tq := t0
	if cs.spans != nil {
		_, _ = sparql.Parse(op.q.Text) // timed only; QueryContext reports a syntax error itself
		tq = time.Now()
	}
	res, err := st.QueryContext(ctx, op.q.Text)
	t1 := time.Now()
	rec := opRec{start: int64(t0.Sub(epoch)), end: int64(t1.Sub(epoch)), class: int32(op.class)}
	if err == nil {
		rec.rows = int32(res.Len())
		rec.ok = res.Len() == op.q.Rows
		cs.stages.observe(res.Stats, t1.Sub(tq))
	}
	cs.recs = append(cs.recs, rec)
	if cs.spans != nil && err == nil {
		root := cs.spans.add("op", cs.opSeq, -1, t0, t1)
		cs.spans.add("sparql.parse", cs.opSeq, root, t0, tq)
		q := cs.spans.add("lbr.query", cs.opSeq, root, tq, t1)
		// The engine's stages are laid out to end where the call ends; what
		// precedes them is the store's own share.
		cs.spans.layout(cs.opSeq, q, t1.Add(-res.Stats.Total), stageNames, stageDurs(res.Stats))
	}
}

// httpRead is one read over the endpoint. Its latency ends at the last
// byte of the response; decoding and checking the document come after.
func httpRead(ctx context.Context, in *instance, cs *clientState, op readOp, epoch time.Time) {
	cs.opSeq++
	t0 := time.Now()
	resp, err := cs.http.query(ctx, op.q.Text, op.format, op.gzip)
	rec := opRec{start: int64(t0.Sub(epoch)), class: int32(op.class), gzip: op.gzip}
	if err != nil {
		rec.end = int64(time.Since(epoch))
		cs.recs = append(cs.recs, rec)
		return
	}
	rec.end = int64(resp.lastByte.Sub(epoch))
	rec.wire, rec.body, rec.hit = int32(resp.wire), int32(len(resp.body)), resp.hit
	if resp.status == http.StatusOK {
		rows, ok := checkDocument(resp.body, op.format, op.q.Vars)
		rec.rows = int32(rows)
		// Under writes the answers move; the data of a read-only workload
		// is fixed, so the count must match the gate's.
		rec.ok = ok && (in.spec.Writes || rows == op.q.Rows)
	}
	cs.recs = append(cs.recs, rec)
	if cs.spans == nil {
		return
	}
	root := cs.spans.add("op", cs.opSeq, -1, t0, resp.lastByte)
	cs.spans.add("http.request", cs.opSeq, root, t0, resp.lastByte)
	if resp.hit || !rec.ok {
		return
	}
	if cs.misses++; cs.misses%replayEvery != 0 {
		return
	}
	pairedReplay(ctx, in.store, cs, op, resp.lastByte.Sub(t0))
}

// pairedReplay repeats a query that missed the server's result cache on
// the library path — the same streaming call and the same serializer the
// server uses, into a discarding writer — so that the server's own share
// of a miss is the round trip less this.
func pairedReplay(ctx context.Context, st *lbr.Store, cs *clientState, op readOp, missRTT time.Duration) {
	var (
		stats     lbr.Stats
		cw        countingWriter
		serialize time.Duration
		begun     bool
	)
	sw := results.NewWriter(op.format.serializer(), &cw)
	var vars []string
	t0 := time.Now()
	err := st.QueryStreamRowsObserved(ctx, op.q.Text, &stats, nil, func(v []string, row []lbr.Term) bool {
		if row == nil {
			vars = v
			return true
		}
		ts := time.Now()
		if !begun {
			begun = true
			_ = sw.Begin(vars) // a countingWriter cannot fail
		}
		_ = sw.Row(row)
		serialize += time.Since(ts)
		return true
	})
	ts := time.Now()
	if !begun {
		_ = sw.Begin(vars)
	}
	_ = sw.End()
	t1 := time.Now()
	serialize += t1.Sub(ts)
	if err != nil {
		return
	}
	cs.stages.observe(stats, t1.Sub(t0))
	cs.stages.replays++
	cs.stages.replayWall += t1.Sub(t0)
	cs.stages.replaySerialize += serialize
	cs.stages.replayMissRTT += missRTT
	cs.opSeq++
	root := cs.spans.add("replay", cs.opSeq, -1, t0, t1)
	q := cs.spans.add("lbr.query", cs.opSeq, root, t0, t1)
	cs.spans.layout(cs.opSeq, q, t0, stageNames, stageDurs(stats))
	cs.spans.add("results.serialize", cs.opSeq, q, t1.Add(-serialize), t1)
}

// httpWrite sends the stream's next update and, when the server
// acknowledges it with the predicted effect, records it in the shadow.
func httpWrite(ctx context.Context, cs *clientState, us *updateStream, epoch time.Time) {
	cs.opSeq++
	u := us.next()
	t0 := time.Now()
	resp, err := cs.http.update(ctx, u.Text)
	rec := opRec{start: int64(t0.Sub(epoch)), class: -1}
	if err != nil {
		rec.end = int64(time.Since(epoch))
		cs.recs = append(cs.recs, rec)
		return
	}
	rec.end = int64(resp.lastByte.Sub(epoch))
	if resp.status == http.StatusOK {
		var ur lbr.UpdateResult
		if json.Unmarshal(resp.body, &ur) == nil && ur.Inserted == len(u.Inserted) && ur.Deleted == len(u.Deleted) {
			rec.ok = true
			rec.rows = int32(ur.Inserted + ur.Deleted)
			us.ack(u)
		}
	}
	cs.recs = append(cs.recs, rec)
	if cs.spans != nil {
		root := cs.spans.add("op", cs.opSeq, -1, t0, resp.lastByte)
		cs.spans.add("http.update", cs.opSeq, root, t0, resp.lastByte)
	}
}
