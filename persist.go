package lbr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bitmat"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// Store snapshot format: a small header, the dictionary, then the index
// pair tables. The raw triples are not stored; the index is the canonical
// representation. "LBRSTOR1" snapshots numbered subjects and objects in
// two spaces; OpenIndex rejects them with ErrSnapshotVersion.
var storeMagic = []byte("LBRSTOR2")

// ErrSnapshotVersion is returned, wrapped, by OpenIndex for a snapshot
// that an earlier format of SaveIndex wrote. Rebuild the store from its
// triples and save it again.
var ErrSnapshotVersion = errors.New("lbr: snapshot format no longer supported")

// SaveIndex writes the built dictionary and index so a later process can
// query without re-parsing N-Triples. Build is invoked first if needed.
// The snapshot depends only on the graph's triple set — the dictionary
// layout is a pure function of the term set and the pair tables are
// canonically sorted — so the same triples always write the same bytes,
// whatever order they arrived in (TestSaveIndexGoldenDigest pins them).
func (s *Store) SaveIndex(w io.Writer) error {
	idx, err := s.ensureIndex()
	if err != nil {
		return err
	}
	// Format-compat assertion: a build-path bug that desynchronized the
	// pair tables from the dictionary would otherwise persist a snapshot
	// that only fails (or worse, misanswers) when reloaded.
	if err := idx.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(storeMagic); err != nil {
		return err
	}
	if _, err := idx.Dictionary().WriteTo(bw); err != nil {
		return err
	}
	if _, err := idx.WriteTo(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The snapshot now covers every mutation the WAL logged (ensureIndex
	// compacted first), so checkpoint: sync the destination if it can be
	// synced, then cut the log. Skipped automatically if mutations raced in.
	if f, ok := w.(interface{ Sync() error }); ok {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return s.maybeCheckpointWAL(idx)
}

// OpenIndex loads a snapshot written by SaveIndex into a queryable store.
// The loaded index becomes the store's base as it is, without decoding a
// triple: Len, Stats, and WriteNTriples read it, and later mutations form a
// delta overlay over it like on any built store.
func OpenIndex(r io.Reader) (*Store, error) {
	return OpenIndexWithOptions(r, Options{})
}

// OpenIndexWithOptions is OpenIndex with options applied to the loaded
// store.
func OpenIndexWithOptions(r io.Reader, opts Options) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(storeMagic) {
		if string(magic) == "LBRSTOR1" {
			return nil, fmt.Errorf("%w: %q", ErrSnapshotVersion, magic)
		}
		return nil, fmt.Errorf("lbr: bad store magic %q", magic)
	}
	dict, err := rdf.ReadDictionary(br)
	if err != nil {
		return nil, fmt.Errorf("lbr: dictionary: %w", err)
	}
	idx, err := bitmat.ReadIndex(br, dict)
	if err != nil {
		return nil, fmt.Errorf("lbr: index: %w", err)
	}
	st := NewStoreWithOptions(opts)
	st.installIndexLocked(idx)
	return st, nil
}

// QueryStream executes a query and calls fn with every result row as a
// map from variable name to bound term. fn returning false stops the
// enumeration early. Which queries stream straight from the multi-way join
// and which are collected and replayed is engine.Engine.ExecuteStream's
// rule.
func (s *Store) QueryStream(src string, fn func(map[string]Term) bool) error {
	return s.QueryStreamContext(context.Background(), src, fn)
}

// QueryStreamContext is QueryStream with cancellation: a done context stops
// the enumeration — in the init, prune, and join phases alike — and
// returns ctx.Err(), so a streaming consumer that goes away does not burn
// the rest of the scan.
func (s *Store) QueryStreamContext(ctx context.Context, src string, fn func(map[string]Term) bool) error {
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	emit := func(vars []sparql.Var, row engine.Row) bool {
		m := make(map[string]Term, len(vars))
		for i, v := range vars {
			if !row[i].IsZero() {
				m[string(v)] = row[i]
			}
		}
		return fn(m)
	}
	eng, err := s.ensureEngine()
	if err != nil {
		return err
	}
	return eng.ExecuteStream(ctx, q, nil, emit, nil, nil)
}

// QueryStreamRows executes a query and streams positional rows to fn: each
// row is aligned with vars, and an unbound OPTIONAL variable is a zero
// Term cell rather than a missing map key. This is the column-ordered
// companion to QueryStream that result serializers need — a map cannot
// carry column order or distinguish "unbound" from "absent".
//
// fn is called once with a nil row before any result rows, carrying the
// variable header, so a consumer can emit its header (or its complete
// zero-row document) even when the query has no solutions. Returning
// false — from the header call or any row call — stops the enumeration
// early without error. A done ctx aborts the query in any phase and
// returns ctx.Err().
//
// Which queries stream with constant memory and which are collected and
// replayed is engine.Engine.ExecuteStream's rule.
//
// When the slow-query log is enabled (Options.SlowQueryThreshold and
// SlowQueryLog), the query runs traced and a slow one is logged, exactly
// like QueryContext.
func (s *Store) QueryStreamRows(ctx context.Context, src string, fn func(vars []string, row []Term) bool) error {
	return s.QueryStreamRowsObserved(ctx, src, nil, nil, fn)
}

// QueryStreamRowsObserved is QueryStreamRows with observation: st, when
// non-nil, receives the query's Stats (Results counts the rows delivered
// to fn; for a streamed execution the Join stage includes fn —
// serialization interleaves with row enumeration — and Total is the
// end-to-end wall clock), and sp, when
// non-nil, receives the execution's span tree under it. Either may be nil
// independently; the server's /metrics stage histograms and ?explain=1
// both sit on this. When sp is nil and the store's slow-query log is
// enabled, the query is traced internally and logged if slow.
func (s *Store) QueryStreamRowsObserved(ctx context.Context, src string, st *Stats, sp *trace.Span, fn func(vars []string, row []Term) bool) error {
	if sp == nil && s.slowLogging() {
		var local Stats
		if st == nil {
			st = &local
		}
		t := trace.New("query")
		start := time.Now()
		err := s.queryStreamRows(ctx, src, st, t.Root(), fn)
		t.Finish()
		d := time.Since(start)
		st.Total = d
		s.logSlowQuery(src, d, st.Results, t.Root(), err)
		return err
	}
	return s.queryStreamRows(ctx, src, st, sp, fn)
}

func (s *Store) queryStreamRows(ctx context.Context, src string, st *Stats, sp *trace.Span, fn func(vars []string, row []Term) bool) error {
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	if sp != nil {
		sp.Set("query_hash", trace.QueryHash(src))
	}
	// The engine emits rows in the header's order on every path today; the
	// remap below is insurance that keeps the public contract ("row[i] is
	// the binding of vars[i]") independent of engine internals.
	var (
		evars   []sparql.Var
		vars    []string
		remap   []int
		checked bool
	)
	header := func(vs []sparql.Var) bool {
		// The header and the rows come from one normalization pass; a
		// dead context has already been refused by the engine.
		evars = vs
		vars = make([]string, len(vs))
		for i, v := range vs {
			vars[i] = string(v)
		}
		return fn(vars, nil)
	}
	emit := func(vs []sparql.Var, row engine.Row) bool {
		if !checked {
			checked = true
			same := len(vs) == len(evars)
			for i := 0; same && i < len(vs); i++ {
				same = vs[i] == evars[i]
			}
			if !same {
				pos := make(map[sparql.Var]int, len(vs))
				for i, v := range vs {
					pos[v] = i
				}
				remap = make([]int, len(evars))
				for i, v := range evars {
					if p, ok := pos[v]; ok {
						remap[i] = p
					} else {
						remap[i] = -1
					}
				}
			}
		}
		if remap == nil {
			return fn(vars, []Term(row))
		}
		out := make([]Term, len(evars))
		for i, p := range remap {
			if p >= 0 {
				out[i] = row[p]
			}
		}
		return fn(vars, out)
	}
	eng, err := s.ensureEngineTraced(sp)
	if err != nil {
		return err
	}
	return eng.ExecuteStream(ctx, q, header, emit, st, sp)
}
