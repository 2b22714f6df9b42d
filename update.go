package lbr

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
// applies them to the net-delta sets, and installs a fresh overlay
// snapshot when the store is built. It returns the effective delete and
// insert counts. The caller holds mu.
func (s *Store) mutateLocked(del, ins []Triple, log bool) (int, int, error) {
	effDel := make([]Triple, 0, len(del))
	delKeys := map[string]bool{}
	for _, t := range del {
		k := t.String()
		if delKeys[k] || !s.containsLocked(k, t) {
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
		if s.containsLocked(k, t) && !delKeys[k] {
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
	// A snapshot exists only over a base, so the overlay has one to merge
	// over.
	if s.eng != nil {
		if err := s.installOverlayLocked(); err != nil {
			// Never serve stale data: drop the snapshot and let the next
			// query install the overlay again.
			s.src, s.eng = nil, nil
		}
	}
	if s.opts.CompactThreshold > 0 && len(s.ins)+len(s.del) >= s.opts.CompactThreshold {
		s.startCompactionLocked()
	}
	return len(effDel), len(effIns), nil
}

// containsLocked reports whether the store holds t, whose N-Triples key is
// k: an insert in the delta, or a base triple the delta has not deleted.
// The caller holds mu.
func (s *Store) containsLocked(k string, t Triple) bool {
	if _, ok := s.ins[k]; ok {
		return true
	}
	if _, ok := s.del[k]; ok || s.base == nil {
		return false
	}
	// A term the base dictionary does not know has ID 0, which the index
	// never contains.
	d := s.base.Dictionary()
	return s.base.Contains(d.SubjectID(t.S), d.PredicateID(t.P), d.ObjectID(t.O))
}

// DeltaSize reports the current number of delta entries (inserts plus
// deletes) versus the base index — the quantity CompactThreshold watches.
func (s *Store) DeltaSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ins) + len(s.del)
}

// compaction is what a compaction captures under mu, in O(delta): the base
// it folds into, copies of the net delta over that base, and the store LSN
// they reflect.
type compaction struct {
	base     *bitmat.Index
	ins, del map[string]Triple
	lsn      uint64
}

// Compact folds every accumulated delta into a freshly built base index
// and installs it as the new snapshot generation. It returns once the
// delta is empty (looping if mutations land during a build) and is safe to
// call concurrently with queries, mutations, and the background compactor.
// On an unbuilt store it performs the initial build.
func (s *Store) Compact() error {
	for {
		s.mu.Lock()
		if s.compactDone != nil {
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
		c := s.beginCompactionLocked()
		s.mu.Unlock()
		if err := s.runCompaction(c); err != nil {
			return err
		}
		// Loop: a rebase during the build leaves a fresh delta to fold.
	}
}

// startCompactionLocked launches the background compactor for the current
// delta, if none is running. The caller holds mu.
func (s *Store) startCompactionLocked() {
	if s.compactDone != nil || s.base == nil || (len(s.ins) == 0 && len(s.del) == 0) {
		return
	}
	go s.runCompaction(s.beginCompactionLocked())
}

// beginCompactionLocked marks a compaction in flight and captures its
// input. The caller holds mu.
func (s *Store) beginCompactionLocked() compaction {
	s.compactDone = make(chan struct{})
	return compaction{base: s.base, ins: maps.Clone(s.ins), del: maps.Clone(s.del), lsn: s.lsn}
}

// runCompaction builds the folded index without holding mu, then marks
// the compaction finished and installs the index under mu. If no mutation
// landed during the build the index becomes the exact new base (empty
// delta); otherwise the store rebases its delta onto it (see rebaseDelta).
func (s *Store) runCompaction(c compaction) error {
	t0 := time.Now()
	idx, err := buildIndex(c.base, c.ins, c.del)
	if err == nil {
		s.compactions.Add(1)
		s.compactionLastNS.Store(int64(time.Since(t0)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.compactDone)
	s.compactDone = nil
	switch {
	case err != nil:
		return err
	case s.lsn == c.lsn:
		s.installIndexLocked(idx)
		return nil
	}
	s.base = idx
	s.ins, s.del = rebaseDelta(c.ins, c.del, s.ins, s.del)
	if err := s.installOverlayLocked(); err != nil {
		s.src, s.eng = nil, nil
	}
	return nil
}

// buildIndex builds a fresh index of the triples base − del + ins (a nil
// base holds none). It touches no store state, so the compactor calls it
// without holding mu.
func buildIndex(base *bitmat.Index, ins, del map[string]Triple) (*bitmat.Index, error) {
	n := len(ins)
	if base != nil {
		n += int(base.NumTriples()) - len(del)
	}
	ts := make([]Triple, 0, n)
	err := forEachBaseTriple(base, del, func(t Triple) bool {
		ts = append(ts, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return bitmat.BuildTriples(slices.AppendSeq(ts, maps.Values(ins)))
}

// forEachBaseTriple calls fn with every triple of base − del, decoded from
// the index in index order, until fn returns false. A nil base holds no
// triples. Every triple of del is a base triple, so each encodes in the
// base dictionary and is skipped by its coordinates.
func forEachBaseTriple(base *bitmat.Index, del map[string]Triple, fn func(Triple) bool) error {
	if base == nil {
		return nil
	}
	d := base.Dictionary()
	gone := make(map[rdf.IDTriple]bool, len(del))
	for _, t := range del {
		it, err := d.Encode(t)
		if err != nil {
			return err
		}
		gone[it] = true
	}
	return base.ForEachTriple(func(it rdf.IDTriple, t Triple) bool {
		return gone[it] || fn(t)
	})
}

// rebaseDelta re-expresses the current net delta (curIns, curDel) over an
// index that folded the compaction's snapshot delta (snapIns, snapDel).
// Both deltas are relative to the same old base, so the store's triples
// minus the new index's are (curIns − snapIns) ∪ (snapDel − curDel), and
// the new index's minus the store's are (snapIns − curIns) ∪
// (curDel − snapDel). It is O(delta) and never looks at the base.
func rebaseDelta(snapIns, snapDel, curIns, curDel map[string]Triple) (ins, del map[string]Triple) {
	ins, del = map[string]Triple{}, map[string]Triple{}
	addMissing := func(dst, src, not map[string]Triple) {
		for k, t := range src {
			if _, ok := not[k]; !ok {
				dst[k] = t
			}
		}
	}
	addMissing(ins, curIns, snapIns)
	addMissing(ins, snapDel, curDel)
	addMissing(del, snapIns, curIns)
	addMissing(del, curDel, snapDel)
	return ins, del
}
