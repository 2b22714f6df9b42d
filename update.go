package lbr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitmat"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// UpdateResult summarizes one ApplyUpdate call.
type UpdateResult struct {
	// Ops is the number of operations executed.
	Ops int `json:"ops"`
	// Inserted and Deleted count effective triple changes: inserts of
	// already-present triples and deletes of absent ones do not count.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Generation is the snapshot generation after the last operation.
	Generation uint64 `json:"generation"`
}

// ApplyUpdate parses and executes a SPARQL 1.1 Update request. Supported
// operations: INSERT DATA, DELETE DATA, DELETE/INSERT ... WHERE (and the
// DELETE WHERE shorthand), separated by ';'. Each operation sees the
// effects of the previous ones; a Modify operation's WHERE clause is
// evaluated against the store state from just before that operation, and
// its deletes apply before its inserts. Every effective operation starts a
// new MVCC snapshot generation — queries already running keep their view.
func (s *Store) ApplyUpdate(src string) (UpdateResult, error) {
	return s.ApplyUpdateContext(context.Background(), src)
}

// ApplyUpdateContext is ApplyUpdate with cancellation, checked between
// operations and during WHERE evaluation. Operations already applied when
// the context fires stay applied (the result reflects them); the update
// request as a whole is not atomic across its ';'-separated operations.
func (s *Store) ApplyUpdateContext(ctx context.Context, src string) (UpdateResult, error) {
	up, err := sparql.ParseUpdate(src)
	if err != nil {
		return UpdateResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res UpdateResult
	for i := range up.Ops {
		op := &up.Ops[i]
		if err := ctx.Err(); err != nil {
			res.Generation = s.gen
			return res, err
		}
		var del, ins []Triple
		switch op.Kind {
		case sparql.UpdateInsertData:
			ins = op.Data
		case sparql.UpdateDeleteData:
			del = op.Data
		case sparql.UpdateModify:
			del, ins, err = s.evalModifyLocked(ctx, up, op)
			if err != nil {
				res.Generation = s.gen
				return res, err
			}
		}
		nd, ni, err := s.mutateLocked(del, ins, true)
		if err != nil {
			res.Generation = s.gen
			return res, err
		}
		res.Ops++
		res.Deleted += nd
		res.Inserted += ni
	}
	res.Generation = s.gen
	return res, nil
}

// evalModifyLocked evaluates a Modify operation's WHERE clause against the
// pre-operation snapshot and instantiates its templates. The caller holds
// mu.
func (s *Store) evalModifyLocked(ctx context.Context, up *sparql.Update, op *sparql.UpdateOp) (del, ins []Triple, err error) {
	eng, _, err := s.ensureSnapshotLocked()
	if err != nil {
		return nil, nil, err
	}
	q := &sparql.Query{Prefixes: up.Prefixes, Where: op.Where, Limit: -1, Offset: -1}
	r, err := eng.ExecuteContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	del = instantiateTemplates(op.DeleteTemplates, r.Vars, r.Rows)
	ins = instantiateTemplates(op.InsertTemplates, r.Vars, r.Rows)
	return del, ins, nil
}

// instantiateTemplates substitutes each solution into the templates. A
// template triple is skipped for solutions that leave any of its variables
// unbound (the W3C rule for OPTIONAL-produced nulls); the result is
// deduplicated in first-occurrence order.
func instantiateTemplates(tmpl []sparql.TriplePattern, vars []sparql.Var, rows []engine.Row) []Triple {
	if len(tmpl) == 0 || len(rows) == 0 {
		return nil
	}
	varIdx := make(map[sparql.Var]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	bindNode := func(n sparql.Node, row engine.Row) (rdf.Term, bool) {
		if !n.IsVar {
			return n.Term, true
		}
		i, ok := varIdx[n.Var]
		if !ok || row[i].IsZero() {
			return rdf.Term{}, false
		}
		return row[i], true
	}
	seen := map[string]bool{}
	var out []Triple
	for _, row := range rows {
		for _, tp := range tmpl {
			st, ok := bindNode(tp.S, row)
			if !ok {
				continue
			}
			pt, ok := bindNode(tp.P, row)
			if !ok {
				continue
			}
			ot, ok := bindNode(tp.O, row)
			if !ok {
				continue
			}
			t := Triple{S: st, P: pt, O: ot}
			if k := t.String(); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// mutateLocked applies one mutation batch: deletes first, then inserts.
// It normalizes the batch to its effective operations (a delete of an
// absent triple or an insert of a present one is dropped; duplicates
// within the batch collapse), appends them to the WAL when log is set,
// applies them to the graph and the net-delta sets, and installs a fresh
// overlay snapshot when the store is built. It returns the effective
// delete and insert counts. The caller holds mu.
func (s *Store) mutateLocked(del, ins []Triple, log bool) (int, int, error) {
	effDel := make([]Triple, 0, len(del))
	delKeys := map[string]bool{}
	for _, t := range del {
		k := t.String()
		if delKeys[k] || !s.graph.Contains(t) {
			continue
		}
		delKeys[k] = true
		effDel = append(effDel, t)
	}
	effIns := make([]Triple, 0, len(ins))
	insKeys := map[string]bool{}
	for _, t := range ins {
		k := t.String()
		if insKeys[k] {
			continue
		}
		// Deletes apply first, so a triple deleted by this very batch can
		// be re-inserted by it.
		if s.graph.Contains(t) && !delKeys[k] {
			continue
		}
		insKeys[k] = true
		effIns = append(effIns, t)
	}
	if len(effDel) == 0 && len(effIns) == 0 {
		return 0, 0, nil
	}
	// WAL before state: if logging fails, nothing is applied.
	if log && s.wal != nil {
		if err := s.wal.append(effDel, effIns); err != nil {
			return 0, 0, fmt.Errorf("lbr: wal append: %w", err)
		}
		s.walAppends.Add(1)
	}
	s.graph.RemoveAll(effDel)
	s.graph.AddAll(effIns)
	for _, t := range effDel {
		k := t.String()
		if _, ok := s.ins[k]; ok {
			delete(s.ins, k) // deleting an overlay insert cancels it
		} else {
			s.del[k] = t // the triple was in the base
		}
	}
	for _, t := range effIns {
		k := t.String()
		if _, ok := s.del[k]; ok {
			delete(s.del, k) // re-inserting a deleted base triple cancels
		} else {
			s.ins[k] = t
		}
	}
	s.lsn++
	switch {
	case s.base != nil && s.eng != nil:
		if err := s.installOverlayLocked(); err != nil {
			// Never serve stale data: drop the snapshot and let the next
			// query fall back to a full rebuild.
			s.src, s.eng = nil, nil
		}
	case s.eng != nil:
		s.src, s.eng = nil, nil
	}
	if s.opts.CompactThreshold > 0 && len(s.ins)+len(s.del) >= s.opts.CompactThreshold {
		s.startCompactionLocked()
	}
	return len(effDel), len(effIns), nil
}

// DeltaSize reports the current number of delta entries (inserts plus
// deletes) versus the base index — the quantity CompactThreshold watches.
func (s *Store) DeltaSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ins) + len(s.del)
}

// Compact folds every accumulated delta into a freshly built base index
// and installs it as the new snapshot generation. It returns once the
// delta is empty (looping if mutations land during a build) and is safe to
// call concurrently with queries, mutations, and the background compactor.
// On an unbuilt store it performs the initial build.
func (s *Store) Compact() error {
	for {
		s.mu.Lock()
		if s.compacting {
			// A background compaction is in flight; wait for it and
			// re-examine the delta it leaves behind.
			ch := s.compactDone
			s.mu.Unlock()
			<-ch
			continue
		}
		if s.base == nil {
			err := s.buildLocked()
			s.mu.Unlock()
			return err
		}
		if len(s.ins) == 0 && len(s.del) == 0 {
			s.mu.Unlock()
			return nil
		}
		snap := append([]Triple(nil), s.graph.Triples()...)
		startLSN := s.lsn
		done := make(chan struct{})
		s.compacting, s.compactDone = true, done
		workers := s.opts.EffectiveWorkers()
		s.mu.Unlock()

		t0 := time.Now()
		idx, err := buildIndexFromTriples(snap, workers)
		if err == nil {
			s.compactions.Add(1)
			s.compactionLastNS.Store(int64(time.Since(t0)))
		}

		s.mu.Lock()
		s.compacting = false
		close(done)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.finishCompactionLocked(idx, snap, startLSN)
		s.mu.Unlock()
		// Loop: a rebase during the build leaves a fresh delta to fold.
	}
}

// startCompactionLocked launches the background compactor for the current
// delta, if none is running. The caller holds mu.
func (s *Store) startCompactionLocked() {
	if s.compacting || s.base == nil || (len(s.ins) == 0 && len(s.del) == 0) {
		return
	}
	snap := append([]Triple(nil), s.graph.Triples()...)
	startLSN := s.lsn
	done := make(chan struct{})
	s.compacting, s.compactDone = true, done
	workers := s.opts.EffectiveWorkers()
	go func() {
		t0 := time.Now()
		idx, err := buildIndexFromTriples(snap, workers)
		if err == nil {
			s.compactions.Add(1)
			s.compactionLastNS.Store(int64(time.Since(t0)))
		}
		s.mu.Lock()
		s.compacting = false
		close(done)
		if err == nil {
			s.finishCompactionLocked(idx, snap, startLSN)
		}
		s.mu.Unlock()
	}()
}

// buildIndexFromTriples builds a fresh index for a triple snapshot. It
// touches no store state, so the background compactor calls it without
// holding mu.
func buildIndexFromTriples(ts []Triple, workers int) (*bitmat.Index, error) {
	g := rdf.NewGraph()
	g.AddAll(ts)
	return bitmat.BuildParallel(g, workers)
}

// finishCompactionLocked installs a freshly built index. If no mutation
// landed during the build it becomes the exact new base (empty delta);
// otherwise the store rebases: the net delta is recomputed from scratch as
// the set difference between the current graph and the triples the new
// base covers, so a racing rebuild can never deposit dead delta entries —
// every entry is derived from the two concrete triple sets, not patched
// incrementally. The caller holds mu.
func (s *Store) finishCompactionLocked(idx *bitmat.Index, built []Triple, startLSN uint64) {
	if s.lsn == startLSN {
		s.installIndexLocked(idx)
		return
	}
	builtSet := make(map[string]Triple, len(built))
	for _, t := range built {
		builtSet[t.String()] = t
	}
	ins := map[string]Triple{}
	cur := make(map[string]bool, s.graph.Len())
	for _, t := range s.graph.Triples() {
		k := t.String()
		cur[k] = true
		if _, ok := builtSet[k]; !ok {
			ins[k] = t
		}
	}
	del := map[string]Triple{}
	for k, t := range builtSet {
		if !cur[k] {
			del[k] = t
		}
	}
	s.base = idx
	s.ins, s.del = ins, del
	if err := s.installOverlayLocked(); err != nil {
		s.src, s.eng = nil, nil
	}
}
