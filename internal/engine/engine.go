// Package engine executes well-designed BGP-OPT queries over the BitMat
// index: the init phase with active pruning, the semi-join and
// clustered-semi-join primitives built on fold/unfold (Algorithms 5.2 and
// 5.3), prune_triples (Algorithm 3.2), the recursive multi-way pipelined
// join (Algorithm 5.4), and the nullification and best-match operators for
// the cyclic cases that need them.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/bitmat"
	"repro/internal/planner"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/trace"
)

// Options tune the engine, mainly for the ablation benchmarks.
type Options struct {
	// DisablePruning skips prune_triples entirely, joining the raw loaded
	// BitMats (the prune ablation).
	DisablePruning bool
	// DisableActivePruning skips the cross-pattern masking during init
	// (the active-pruning ablation).
	DisableActivePruning bool
	// NaiveJvarOrder replaces the Algorithm 3.1 orders with a plain
	// bottom-up/top-down pass rooted arbitrarily (the jvar-order ablation);
	// it keeps correctness but loses the selectivity-driven pruning order.
	NaiveJvarOrder bool
	// Workers bounds the goroutines of the partitioned multi-way join of
	// each UNF branch, the engine's one parallel phase; init and
	// prune_triples run on the calling goroutine. A query's branches
	// (UNION alternatives and the per-predicate branches of a ?s ?p ?o
	// expansion) run one after another, each with the whole pool. 0
	// means GOMAXPROCS; 1 forces the sequential code paths; negative
	// values are treated as 1 (see EffectiveWorkers). Parallel execution
	// returns the same rows in the same order as sequential execution.
	Workers int
}

// Engine executes queries against one BitMat source: a compacted index or
// a delta overlay merging uncompacted updates over one.
type Engine struct {
	idx  bitmat.Source
	dict *rdf.Dictionary
	opts Options
	// mc is the engine's generation-bound view of the store-level
	// cross-query materialization cache; nil when the engine stands alone
	// (benchmark harnesses, tests) or caching is disabled.
	mc *MatCacheView
	// cells holds the snapshot's ID→cell tables (see Cells).
	cells cellTables
	// memo holds the Prepared of every query text read through
	// PrepareText, for the engine's one snapshot.
	memo memo
}

// New returns an engine over idx.
func New(idx bitmat.Source, opts Options) *Engine {
	return &Engine{idx: idx, dict: idx.Dictionary(), opts: opts}
}

// NewWithCache returns an engine over idx that materializes triple-pattern
// BitMats through the given cache view. The view must be the one minted by
// the MatCache.Advance that accompanied this index snapshot: the pairing
// pins every cached matrix the engine reads to its own generation.
func NewWithCache(idx bitmat.Source, opts Options, mc *MatCacheView) *Engine {
	e := New(idx, opts)
	e.mc = mc
	return e
}

// Stats reports the Section 6.1 evaluation metrics of one execution.
type Stats struct {
	Init  time.Duration // Tinit: BitMat loading with active pruning
	Prune time.Duration // Tprune: prune_triples
	Join  time.Duration // Tmultiway: multi-way join + nullification/best-match
	Merge time.Duration // branch merge, cross-branch best-match, solution modifiers
	Total time.Duration

	InitialTriples int64 // sum of per-pattern matches before init pruning
	AfterPruning   int64 // sum of triples left in all BitMats after pruning
	Results        int
	NullResults    int  // rows with at least one NULL
	BestMatch      bool // nullification/best-match were required
	EmptyShortcut  bool // the init-time empty-master optimization fired
}

// Result is the output of a query execution: rows of cells, and the
// resolver of those cells to terms.
type Result struct {
	Vars  []sparql.Var
	Rows  []Row
	Cells *Cells
	Stats Stats
}

// Execute runs a prepared query end to end on the collect route: per-branch
// well-designedness handling, planning, pruning, partitioned multi-way
// join, the union of branch results, and the solution modifiers. A done
// ctx aborts the execution in any phase and returns ctx.Err(). When sp is
// non-nil, the execution records its span tree — per-branch planner
// decisions, per-pattern load/cache outcomes, per-jvar prune levels, the
// partitioned join, and the merge — as children of sp; a nil sp reduces
// the instrumentation to nil checks, allocating nothing and perturbing
// neither timings nor results.
func (e *Engine) Execute(ctx context.Context, p *Prepared, sp *trace.Span) (*Result, error) {
	start := time.Now()
	if p.err != nil {
		return nil, p.err
	}
	return e.collect(ctx, p, start, sp)
}

// AskContext evaluates an existence check: whether the pattern has at
// least one solution. It streams through the pipelined join and stops at
// the first row. A done context aborts the check in any phase and returns
// ctx.Err(). sp, when non-nil, receives the probe's span tree as
// ExecuteStream records it.
func (e *Engine) AskContext(ctx context.Context, p *Prepared, sp *trace.Span) (bool, error) {
	probe := *p.q
	probe.Ask = false
	probe.Select = nil // SELECT * so the stream sink applies
	probe.Distinct = false
	// Solution modifiers don't change whether the pattern has a solution,
	// but they would change how much work the probe does: ORDER BY forces
	// the query to collect and sort, and LIMIT/OFFSET would cut the stream
	// before its first row. Strip them so the probe really stops at the
	// first solution. The pattern is the query's, so the probe shares its
	// branches, cells and plans.
	probe.OrderBy = nil
	probe.Limit, probe.Offset = -1, -1
	pp := *p
	pp.q = &probe
	found := false
	err := e.ExecuteStream(ctx, &pp, nil, func([]sparql.Var, Row) bool {
		found = true
		return false
	}, nil, sp)
	return found, err
}

// ExecuteStream executes a prepared query and hands each result row to
// fn. It is the engine's one streaming entry point, and this is where its
// rule lives: rows go from the multi-way join straight to fn when the
// query has a single UNF branch, is SELECT * without DISTINCT or ORDER BY,
// and needs no rule-3 minimum union (a UNION or a ?s ?p ?o pattern under
// an OPTIONAL). OFFSET and LIMIT then apply inline, and the enumeration
// stops at the limit. Within such a query, a branch whose plan needs
// best-match (a cyclic plan with multi-jvar slaves, or an ablation option)
// or whose OPTIONAL carries a FILTER collects its rows first and replays
// them. Every other query is collected, merged, passed through the
// solution modifiers, and replayed to fn.
//
// header, when non-nil, receives the result columns and the resolver of
// every row's cells before any row; returning false ends the call without
// executing and without error (the streaming analogue of LIMIT 0). A row
// handed to fn is valid only during the call: the stream sink reuses it.
// fn returning false stops the enumeration. A done ctx stops the
// execution in any phase and returns ctx.Err(). st, when non-nil,
// receives the execution's Stats: Results and NullResults count the rows
// delivered to fn, and the Join stage of a streamed branch includes fn's
// own time. sp, when non-nil, receives the span tree exactly as Execute
// records it.
func (e *Engine) ExecuteStream(ctx context.Context, p *Prepared, header func(vars []sparql.Var, cells *Cells) bool, fn func(vars []sparql.Var, row Row) bool, st *Stats, sp *trace.Span) error {
	start := time.Now()
	if p.err != nil {
		return p.err
	}
	if header != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !header(p.resultVars(), p.cells) {
			return nil
		}
	}
	var stats Stats
	var err error
	if p.streamable() {
		err = e.stream(ctx, p, fn, &stats, sp)
	} else {
		var res *Result
		if res, err = e.collect(ctx, p, start, sp); err == nil {
			stats = res.Stats
			stats.Results, stats.NullResults = 0, 0
			for _, row := range res.Rows {
				stats.Results++
				if row.NullCount() > 0 {
					stats.NullResults++
				}
				if !fn(res.Vars, row) {
					break
				}
			}
		}
	}
	if st != nil {
		stats.Total = time.Since(start)
		*st = stats
	}
	return err
}

// Prepared is a query normalized once for execution over one engine's
// snapshot: parsed, UNF-rewritten, its three-variable patterns expanded,
// its constants given cells, and each branch's plan made on the branch's
// first execution and kept. Everything in it derives from the query and
// the snapshot alone, so it is read-only once made (a plan slot fills
// once) and any number of executions may share it: the engine's memo
// (PrepareText) hands one Prepared to every read of a query text.
type Prepared struct {
	q *sparql.Query
	// err is the preparation's error, returned by every execution.
	err error
	// vars is the result variable universe: the sorted union of the
	// pattern variables across all UNF branches, taken before cheap-filter
	// substitution, so a FILTER-substituted or rewritten predicate
	// variable keeps its column (its binding is re-injected per row).
	vars  []sparql.Var
	execs []execBranch
	// plans holds one plan slot per entry of execs.
	plans []branchPlan
	// cells resolves the query's rows; witness is the cell of a synthetic
	// witness column that binds (0 when no branch has one).
	cells   *Cells
	witness uint32
	// unionFree marks a single UNF branch that needs no rule-3 minimum
	// union: the pattern half of the stream rule (see streamable).
	unionFree bool
}

// Prepare normalizes a parsed query for execution: FromQuery, the UNF
// rewrite, the safe-filter check, cheap-filter substitution, and the
// full-scan expansion. It is the one normalization pass under every entry
// point. A failure is kept in the Prepared and returned by every
// execution of it, before any row. Prepare does not consult the memo;
// PrepareText does.
func (e *Engine) Prepare(q *sparql.Query) *Prepared {
	p, err := e.prepare(q)
	if err != nil {
		return &Prepared{q: q, err: err}
	}
	return p
}

func (e *Engine) prepare(q *sparql.Query) (*Prepared, error) {
	p := &Prepared{q: q}
	tree, err := algebra.FromQuery(q)
	if err != nil {
		return nil, err
	}
	branches, err := algebra.NormalizeUNF(tree)
	if err != nil {
		return nil, err
	}
	p.vars = branchVarUnion(branches)
	for _, b := range branches {
		if err := b.CheckSafeFilters(); err != nil {
			return nil, err
		}
		b.SubstituteCheapFilters()
	}
	// Three-variable patterns expand into per-predicate branches here, so
	// everything below sees only patterns the BitMat layout supports.
	if p.execs, err = e.expandFullScans(branches); err != nil {
		return nil, err
	}
	p.plans = make([]branchPlan, len(p.execs))
	// Every constant a row can hold gets its cell here, so the resolver is
	// complete before any row exists.
	p.cells = e.newCells()
	for i := range p.execs {
		eb := &p.execs[i]
		eb.substCells = make([]uint32, len(eb.b.Substs))
		for k, cs := range eb.b.Substs {
			if cs.From == "" {
				eb.substCells[k] = p.cells.cell(cs.Term)
			}
		}
		if len(eb.b.SynthWitnesses) > 0 && p.witness == 0 {
			p.witness = p.cells.cell(witnessMatched)
		}
	}
	p.unionFree = len(branches) == 1
	for _, eb := range p.execs {
		p.unionFree = p.unionFree && !eb.b.UsedRule3
	}
	return p, nil
}

// IsAsk reports whether the query is an ASK.
func (p *Prepared) IsAsk() bool { return p.q.Ask }

// streamable marks the queries whose rows may go straight to the caller;
// ExecuteStream states the rule.
func (p *Prepared) streamable() bool {
	return p.unionFree && p.q.SelectAll() && !p.q.Distinct && len(p.q.OrderBy) == 0
}

// resultVars is the column order the caller sees: vars projected through
// an explicit SELECT clause the way project() does.
func (p *Prepared) resultVars() []sparql.Var {
	if p.q.SelectAll() {
		return p.vars
	}
	_, vars := projection(p.q, p.vars)
	return vars
}

// branchVarUnion is the sorted union of the pattern variables across all
// UNF branches.
func branchVarUnion(branches []*algebra.Branch) []sparql.Var {
	varSet := map[sparql.Var]bool{}
	for _, b := range branches {
		for v := range algebra.TreeVars(b.Tree) {
			varSet[v] = true
		}
	}
	vars := make([]sparql.Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}

// collectSynthVars gathers the synthetic witness variables carried by the
// branches' rule-3 splits, sorted for a deterministic hidden-column order.
// Empty for every query that never used rule 3.
func collectSynthVars(execs []execBranch) []sparql.Var {
	set := map[sparql.Var]bool{}
	for _, eb := range execs {
		for _, sp := range eb.b.DupSplits {
			for _, v := range sp.Vars {
				if algebra.IsSynthWitnessVar(v) {
					set[v] = true
				}
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]sparql.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stream runs a streamable query: its branches in order, each joining
// into the stream sink, with OFFSET and LIMIT applied as rows reach the
// caller. A branch that had to collect hands its rows back, and they are
// replayed through the same path.
func (e *Engine) stream(ctx context.Context, p *Prepared, fn func([]sparql.Var, Row) bool, st *Stats, sp *trace.Span) error {
	if sp != nil {
		sp.Set("branches", len(p.execs))
		sp.Set("streamed", true)
	}
	// Rows arrive in the order the collect route slices, so skipping the
	// first Offset rows and cutting at Limit is equivalent — and a LIMIT
	// 10 over a million-row scan stops after 10 rows.
	skip := p.q.Offset
	remaining := p.q.Limit // negative = unlimited
	stopped := false
	deliver := func(row Row) bool {
		if skip > 0 {
			skip--
			return true
		}
		if remaining == 0 {
			stopped = true
			return false
		}
		st.Results++
		if row.NullCount() > 0 {
			st.NullResults++
		}
		if !fn(p.vars, row) {
			stopped = true
			return false
		}
		if remaining > 0 {
			if remaining--; remaining == 0 {
				stopped = true
				return false
			}
		}
		return true
	}
	for i, eb := range p.execs {
		br, err := e.executeBranch(ctx, i, eb, p, p.vars, deliver, sp)
		if err != nil {
			return err
		}
		accumulate(st, &br.Stats)
		for _, row := range br.Rows {
			if !deliver(row) {
				break
			}
		}
		if stopped {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// collect runs every branch into the collect sink, merges the branches
// (cross-branch minimum union included), and applies the solution
// modifiers.
func (e *Engine) collect(ctx context.Context, p *Prepared, start time.Time, sp *trace.Span) (*Result, error) {
	vars, execs := p.vars, p.execs
	res := &Result{Vars: vars, Cells: p.cells}
	if sp != nil {
		// vars is the public column set; synthetic witness columns (below)
		// are an internal detail and never count here.
		sp.Set("branches", len(execs))
		sp.Set("vars", len(vars))
	}
	// Synthetic witness variables of rule-3 splits extend the working row
	// layout as hidden trailing columns: every branch of a group resolves
	// the same hidden variable to the same column, so the dedup and
	// minimum-union passes see the witnesses, and the rows are cut back to
	// the public width before modifiers, serialization, or streaming ever
	// touch them.
	allVars := vars
	if hidden := collectSynthVars(execs); len(hidden) > 0 {
		allVars = make([]sparql.Var, 0, len(vars)+len(hidden))
		allVars = append(append(allVars, vars...), hidden...)
	}
	varPos := make(map[sparql.Var]int, len(allVars))
	for i, v := range allVars {
		varPos[v] = i
	}
	// The branches run in order, each with the whole worker pool for its
	// own pruning and partitioned join. A subpattern recurring across
	// branches shares its BitMat materialization through the MatCache,
	// as it would across queries. The context is checked before every
	// branch, so a per-request timeout cancels a many-branch union
	// between branches instead of running it to the end.
	branchRes := make([]*Result, len(execs))
	for i := range execs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		br, err := e.executeBranch(ctx, i, execs[i], p, allVars, nil, sp)
		if err != nil {
			return nil, err
		}
		branchRes[i] = br
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Everything from here on is the merge stage: branch concatenation,
	// cross-branch best-match, and (below) the solution modifiers.
	tMerge := time.Now()
	var msp *trace.Span
	if sp != nil {
		msp = sp.Child("merge")
	}
	// metas stays nil until some branch actually carries rule-3 collapse
	// scope; a plain query never pays the per-row pointer. rowGroup tracks
	// each row's distribution group so the cross-branch minimum union
	// below stays scoped to the branches rule 3 actually split — genuine
	// UNION alternatives have distinct groups and must keep their rows
	// even when one subsumes another (bag-union semantics). Both serve
	// only that cross-branch pass, so a single branch builds neither and
	// hands its rows through; several concatenate into slices sized once.
	var allRows []Row
	var metas []*dupMeta
	var rowGroup []int32
	if len(execs) == 1 {
		allRows = branchRes[0].Rows
	} else {
		total := 0
		for _, br := range branchRes {
			total += len(br.Rows)
		}
		allRows, rowGroup = make([]Row, 0, total), make([]int32, 0, total)
	}
	groupID := map[string]int32{}
	var groupNeed []bool
	var groupBranches []int
	for i, eb := range execs {
		br := branchRes[i]
		accumulate(&res.Stats, &br.Stats)
		if len(execs) == 1 {
			break // its rows are allRows already, and nothing crosses branches
		}
		if meta := dupMetaFor(eb, varPos); meta != nil || metas != nil {
			if metas == nil {
				metas = make([]*dupMeta, len(allRows), cap(allRows))
			}
			for range br.Rows {
				metas = append(metas, meta)
			}
		}
		gid, ok := groupID[eb.b.DupGroup]
		if !ok {
			gid = int32(len(groupNeed))
			groupID[eb.b.DupGroup] = gid
			groupNeed = append(groupNeed, false)
			groupBranches = append(groupBranches, 0)
		}
		groupBranches[gid]++
		if eb.b.UsedRule3 || br.Stats.BestMatch {
			groupNeed[gid] = true
		}
		for range br.Rows {
			rowGroup = append(rowGroup, gid)
		}
		allRows = append(allRows, br.Rows...)
	}
	crossBM := false
	for gid := range groupNeed {
		if groupNeed[gid] && groupBranches[gid] > 1 {
			crossBM = true
		} else {
			groupNeed[gid] = false
		}
	}
	// Cross-branch artifact removal, scoped twice over: only within one
	// distribution group, and only rows whose own split demonstrably
	// failed may be removed — matched rows are genuine solutions whatever
	// a sibling branch produced. Without metas no branch carries rule-3
	// scope and there is nothing to collapse (rows of distinct expansion
	// branches always differ in their forced predicate binding).
	if crossBM && metas != nil {
		keep, failed := dedupNullUnionKeep(allRows, metas)
		allRows, rowGroup, failed = filterRows(allRows, rowGroup, failed, keep)
		allRows = bestMatchGroups(allRows, rowGroup, groupNeed, failed)
		res.Stats.BestMatch = true
	}
	// Cut the rows back to the public width: the synthetic witness columns
	// have done their job (the collapse passes above), and nothing
	// downstream — modifiers, NULL accounting, serialization — may see
	// them.
	if len(allVars) > len(vars) {
		for i, r := range allRows {
			allRows[i] = r[:len(vars)]
		}
	}
	res.Rows = allRows
	res.applyModifiers(p.q)
	res.Stats.Merge = time.Since(tMerge)
	res.Stats.Total = time.Since(start)
	if msp != nil {
		msp.Set("rows", len(res.Rows))
		msp.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// applyModifiers applies q's solution modifiers to the result, in SPARQL
// order: ORDER BY on the full bindings, then projection, DISTINCT, OFFSET,
// LIMIT. Results and NullResults then count the rows that remain.
func (res *Result) applyModifiers(q *sparql.Query) {
	if len(q.OrderBy) > 0 {
		res.orderBy(q.OrderBy)
	}
	if !q.SelectAll() {
		res.project(q)
	}
	if q.Distinct {
		res.distinct()
	}
	res.slice(q.Offset, q.Limit)
	res.Stats.Results = len(res.Rows)
	res.Stats.NullResults = 0
	for _, r := range res.Rows {
		if slices.Contains(r, 0) {
			res.Stats.NullResults++
		}
	}
}

// orderBy sorts the rows by the given keys: numeric literals compare
// numerically, everything else by its N-Triples rendering; NULLs sort
// first (as unbound does in SPARQL). Equal cells are equal terms, so only
// a key whose cells differ is resolved.
func (res *Result) orderBy(keys []sparql.OrderKey) {
	cols := make([]int, 0, len(keys))
	desc := make([]bool, 0, len(keys))
	pos := map[sparql.Var]int{}
	for i, v := range res.Vars {
		pos[v] = i
	}
	for _, k := range keys {
		if p, ok := pos[k.Var]; ok {
			cols = append(cols, p)
			desc = append(desc, k.Desc)
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, c := range cols {
			x, y := res.Rows[a][c], res.Rows[b][c]
			if x == y {
				continue
			}
			cmp := compareForOrder(res.Cells.Term(x), res.Cells.Term(y))
			if cmp == 0 {
				continue
			}
			if desc[i] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

func compareForOrder(a, b rdf.Term) int {
	switch {
	case a.IsZero() && b.IsZero():
		return 0
	case a.IsZero():
		return -1
	case b.IsZero():
		return 1
	}
	if fa, ok := numeric(a); ok {
		if fb, ok := numeric(b); ok {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		}
	}
	sa, sb := a.String(), b.String()
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return 0
}

// slice applies OFFSET and LIMIT (-1 = unset).
func (res *Result) slice(offset, limit int) {
	rows := res.Rows
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	res.Rows = rows
}

func accumulate(dst, src *Stats) {
	dst.Init += src.Init
	dst.Prune += src.Prune
	dst.Join += src.Join
	dst.Merge += src.Merge
	dst.InitialTriples += src.InitialTriples
	dst.AfterPruning += src.AfterPruning
	dst.BestMatch = dst.BestMatch || src.BestMatch
	dst.EmptyShortcut = dst.EmptyShortcut || src.EmptyShortcut
}

// branchPlan is one branch's plan step, made on the branch's first
// execution and kept in its Prepared, so later executions of a memoized
// query skip it.
type branchPlan struct {
	once   sync.Once
	plan   *planner.Plan
	placed planner.FilterPlacement
	// emptyAt is the first pattern, in load order, of an absolute-master
	// supernode whose exact count is 0: the branch's answer is empty
	// before anything loads (Section 5's simple optimization). -1 when no
	// such pattern exists.
	emptyAt int
	err     error
}

// planOf returns the plan of p's branch i, planning it on first use;
// cached reports that an earlier call had made it.
func (e *Engine) planOf(p *Prepared, i int) (bp *branchPlan, cached bool) {
	bp, cached = &p.plans[i], true
	bp.once.Do(func() {
		cached = false
		b := p.execs[i].b
		if bp.plan, bp.err = e.planBranch(b); bp.err == nil {
			bp.placed = planner.PlaceFilters(b, bp.plan.GoSN)
			bp.emptyAt = emptyMaster(bp.plan)
		}
	})
	return bp, cached
}

// emptyMaster returns the first pattern of an absolute-master supernode
// whose count is 0, or -1. bitmat.Count is exact over an index and an
// overlay, and over-counts where it is not (the self-join diagonal), so a
// zero count always means an empty load.
func emptyMaster(plan *planner.Plan) int {
	gosn := plan.GoSN
	for i, n := range plan.Counts {
		if n == 0 && gosn.IsAbsoluteMaster(gosn.SNOfTP[i]) {
			return i
		}
	}
	return -1
}

// planBranch is a branch's one plan step (Algorithm 5.1 lines 1-2 and
// 5): GoSN, the Appendix-B transform of a non-well-designed pattern (which
// then proceeds under null-intolerant joins), GoJ, the selectivity
// estimates from index metadata, and the plan — Algorithm 3.1's jvar
// orders and the best-match decision.
func (e *Engine) planBranch(b *algebra.Branch) (*planner.Plan, error) {
	gosn, err := algebra.BuildGoSN(b.Tree)
	if err != nil {
		return nil, err
	}
	if viols := algebra.CheckWellDesigned(b.Tree, gosn); len(viols) > 0 {
		algebra.TransformNWD(gosn, viols)
	}
	goj, err := algebra.BuildGoJ(gosn.Patterns)
	if err != nil {
		return nil, err
	}
	plan := planner.BuildPlan(gosn, goj, EstimateCounts(e.idx, gosn.Patterns))
	if e.opts.NaiveJvarOrder && !plan.Greedy {
		naiveOrders(plan)
	}
	return plan, nil
}

// joinChunk is one joinRun's share of a branch's join output. The stream
// sink has one chunk whose rows go to fn; the collect sink fills one
// chunk per root partition, and the chunks concatenate — in partition
// order — to exactly the sequential output.
//
// A collected row is the next w cells of the chunk's current block. The
// chunk keeps only the blocks, and the branch cuts them into rows once,
// into a slice sized to the row count, so no per-row slice grows.
type joinChunk struct {
	fn           func(Row) bool // stream sink; nil collects into blocks
	blocks       [][]uint32     // the claimed cells of every block but the current one
	block        []uint32       // the current block
	changed      []bool         // per collected row: a binding was cleared; only when tracked
	slab         []uint32       // unclaimed tail of the current block
	slabRows     int            // rows in the last block allocated
	kept         int            // rows that survived the row filters
	fanNullified bool
	filterIn     int // rows that reached the filter stage
	fanNulls     int // rows whose scope a slave filter nullified
}

// Row blocks start small, so a selective query that emits one row does not
// allocate a large block, and double up to a bound that keeps the unused
// tail of the last block small.
const (
	slabMinRows = 16
	slabMaxRows = 256
)

// nextRow returns the chunk's next free row slot of width w, cleared. The
// slot stays free until claimRow takes it, so a row the filters reject is
// overwritten by the next one instead of costing an allocation. (The nil
// check serves width 0: its rows take no room but must not be nil.)
func (c *joinChunk) nextRow(w int) Row {
	if c.slab == nil || len(c.slab) < w {
		if c.block != nil {
			c.blocks = append(c.blocks, c.block[:len(c.block)-len(c.slab)])
		}
		c.slabRows = min(max(2*c.slabRows, slabMinRows), slabMaxRows)
		c.block = make([]uint32, c.slabRows*w)
		c.slab = c.block
	}
	row := Row(c.slab[:w:w])
	clear(row)
	return row
}

// claimRow takes the slot nextRow returned: the row keeps its cells for
// good, and the next row is carved from the rest of the block.
func (c *joinChunk) claimRow(w int) {
	c.slab = c.slab[w:]
}

// appendRows appends the chunk's collected rows, of width w, to rows.
func (c *joinChunk) appendRows(rows []Row, w int) []Row {
	if w == 0 {
		for range c.kept {
			rows = append(rows, Row{})
		}
		return rows
	}
	for _, b := range append(c.blocks, c.block[:len(c.block)-len(c.slab)]) {
		for ; len(b) > 0; b = b[w:] {
			rows = append(rows, Row(b[:w:w]))
		}
	}
	return rows
}

// executeBranch runs one union-free branch (Algorithm 5.1): plan, init
// with active pruning, prune_triples, and the multi-way join into a sink
// chosen after planning. With fn non-nil the join streams: one sequential
// joinRun hands every row that passes the row filters to fn, and the
// returned Rows stay nil. With fn nil — or when the plan needs
// nullification/best-match, or a slave filter may nullify (FaN) — the
// join collects: the partitioned join fills Rows, deduplicated and
// best-matched when a binding was cleared, for the caller to merge or
// replay. The stream sink hands fn one reused row, valid during the call.
//
// The branch's partitioned join uses the whole worker pool
// (e.workers()). qsp, when non-nil, is the query's trace span: the
// branch records itself in a "branch" child numbered branch, with the
// plan, init, prune, join and filter stages under that.
func (e *Engine) executeBranch(ctx context.Context, branch int, eb execBranch, p *Prepared, vars []sparql.Var, fn func(Row) bool, qsp *trace.Span) (*Result, error) {
	var sp *trace.Span
	if qsp != nil {
		sp = qsp.Child("branch")
		sp.Set("branch", branch)
		defer sp.End()
	}
	res := &Result{Vars: vars}
	var plsp *trace.Span
	if sp != nil {
		plsp = sp.Child("plan")
	}
	bp, cached := e.planOf(p, branch)
	if plsp != nil {
		plsp.Set("cached", cached)
		plsp.End()
	}
	if bp.err != nil {
		return nil, bp.err
	}
	plan := bp.plan
	gosn := plan.GoSN
	res.Stats.InitialTriples = sum(plan.Counts)
	if sp != nil {
		sp.Set("patterns", len(gosn.Patterns))
		sp.Set("initial_triples", res.Stats.InitialTriples)
		sp.Set("cyclic", plan.Cyclic)
		sp.Set("greedy", plan.Greedy)
		sp.Set("best_match", plan.NeedsBestMatch)
	}
	// Simple optimization (Section 5), decided by the plan: an absolute
	// master with no triple means an empty result, so nothing loads.
	if bp.emptyAt >= 0 {
		if sp != nil {
			sp.Set("empty_pattern", bp.emptyAt)
		}
		return emptyShortcut(res, sp), nil
	}
	// Without the full prune_triples pass (or with a non-standard jvar
	// order) the per-pattern triple sets are not minimal, so nullification
	// and best-match become mandatory (Lemma 3.1); they, and FaN, need the
	// branch's rows together, so such a branch collects.
	nulreqd := plan.NeedsBestMatch || e.opts.DisablePruning || e.opts.NaiveJvarOrder
	placed := bp.placed
	slaveFilters, rowFilters := placed.Slave, placed.Row
	// Only nullification or a slave filter can clear a binding of an
	// emitted row, so only then does the sink record which rows changed,
	// for dedupNullified.
	trackChanged := nulreqd || len(slaveFilters) > 0
	if trackChanged {
		fn = nil
	}

	// Lines 3-4: init with active pruning. A cancelled context aborts
	// between pattern loads, so an expensive BitMat materialization is the
	// most a dead query can still cost here.
	tInit := time.Now()
	var isp *trace.Span
	if sp != nil {
		isp = sp.Child("init")
	}
	tps := make([]*tpState, len(gosn.Patterns))
	for i, pat := range gosn.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var lsp *trace.Span
		if isp != nil {
			lsp = isp.Child("load")
			lsp.Set("pattern", pat.String())
		}
		st, err := e.load(pat, i, gosn.SNOfTP[i], plan, tps, lsp)
		if err != nil {
			return nil, err
		}
		if !e.opts.DisableActivePruning {
			e.activePrune(st, tps, plan)
		}
		tps[i] = st
		if lsp != nil {
			lsp.Set("triples", st.count())
			lsp.End()
		}
		// A master active pruning emptied means an empty result too.
		if gosn.IsAbsoluteMaster(st.sn) && st.count() == 0 {
			res.Stats.Init = time.Since(tInit)
			isp.End()
			return emptyShortcut(res, sp), nil
		}
	}
	res.Stats.Init = time.Since(tInit)
	isp.End()

	// Line 7: prune_triples (Algorithm 3.2). The context threads into the
	// pruning passes, which bail between jvar levels when the query is
	// cancelled.
	tPrune := time.Now()
	var psp *trace.Span
	if sp != nil {
		psp = sp.Child("prune")
	}
	if !e.opts.DisablePruning {
		e.pruneTriples(ctx, plan, tps, psp)
	}
	res.Stats.Prune = time.Since(tPrune)
	psp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, st := range tps {
		res.Stats.AfterPruning += st.count()
	}
	if sp != nil {
		sp.Set("after_pruning", res.Stats.AfterPruning)
	}
	// Re-check the empty-master shortcut after pruning.
	for _, st := range tps {
		if gosn.IsAbsoluteMaster(st.sn) && st.count() == 0 {
			return emptyShortcut(res, sp), nil
		}
	}

	// Lines 8-13: sort patterns and run the pipelined join.
	tJoin := time.Now()
	var jsp *trace.Span
	if sp != nil {
		jsp = sp.Child("join")
		if fn != nil {
			jsp.Set("streamed", true)
		}
	}
	stps := sortTPs(plan, tps)
	varIdx := make(map[sparql.Var]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	forcedSlots := resolveForced(eb, stps, varIdx)
	witnessSlots := resolveWitnesses(eb, stps, varIdx)
	substSlots := resolveSubsts(eb, varIdx)
	cells := p.cells
	makeEmit := func(out *joinChunk) func(*joinRun) bool {
		return func(r *joinRun) bool {
			row := out.nextRow(len(vars))
			for v, id := range r.bindings {
				if r.state[v] == stBound {
					if m := r.cellOf[v]; m != nil {
						row[v] = m[id]
					} else {
						row[v] = uint32(id)
					}
				}
			}
			rowChanged := false
			// Nullification for reordered cyclic plans.
			var failed map[int]bool
			if r.nulreqd {
				if failed = r.nullification(); failed != nil {
					for v, sn := range r.ownerSN {
						if sn >= 0 && failed[sn] {
							row[v] = 0
						}
					}
					rowChanged = true
				}
			}
			// Forced bindings of rewritten three-variable patterns: the
			// predicate term binds only when its pattern matched a triple
			// and the pattern's supernode survived nullification.
			for _, fs := range forcedSlots {
				if r.matched[fs.pos] == 1 && !failed[fs.sn] {
					row[fs.col] = fs.cell
				}
			}
			// Synthetic witnesses of rule-3 alternatives whose own variables
			// all occur in the master: the hidden column binds exactly when
			// the alternative matched — every anchor pattern matched a triple
			// and none of their supernodes were nullified — so the collapse
			// passes can tell a genuine match from a failed-split artifact.
			for _, ws := range witnessSlots {
				ok := true
				for k, pos := range ws.poss {
					if r.matched[pos] != 1 || failed[ws.sns[k]] {
						ok = false
						break
					}
				}
				if ok {
					row[ws.col] = p.witness
				}
			}
			// FaN: scoped slave filters nullify their supernodes' bindings on
			// failure; row filters reject the row.
			if placed.Any() {
				out.filterIn++
			}
			for _, sf := range slaveFilters {
				if !filterHolds(sf.Expr, row, varIdx, cells) {
					failedSNs, changed := e.nullifyScope(row, r, sf.SNs)
					for _, fs := range forcedSlots {
						if failedSNs[fs.sn] && row[fs.col] != 0 {
							row[fs.col] = 0
							changed = true
						}
					}
					for _, ws := range witnessSlots {
						if row[ws.col] == 0 {
							continue
						}
						for _, sn := range ws.sns {
							if failedSNs[sn] {
								row[ws.col] = 0
								changed = true
								break
							}
						}
					}
					if changed {
						rowChanged = true
						out.fanNullified = true
						out.fanNulls++
					}
				}
			}
			for _, rf := range rowFilters {
				if !filterHolds(rf.Expr, row, varIdx, cells) {
					return true // drop the row, keep enumerating
				}
			}
			// Cheap-filter bindings enter the rows the filters kept, on
			// both routes, before any dedup or best-match pass.
			for _, ss := range substSlots {
				if ss.src >= 0 {
					row[ss.col] = row[ss.src]
				} else {
					row[ss.col] = ss.cell
				}
			}
			out.kept++
			if out.fn != nil {
				// The stream sink's row is fn's only during the call, so
				// its slot is never claimed: the next row overwrites it.
				return out.fn(row)
			}
			out.claimRow(len(vars))
			if trackChanged {
				out.changed = append(out.changed, rowChanged)
			}
			return true
		}
	}

	var chunks []joinChunk
	if fn == nil {
		// Partitioned multi-way join: each worker enumerates a contiguous
		// slice of the root pattern's surviving triples with its own
		// joinRun state over the shared (now read-only) tpStates.
		nWorkers := e.workers()
		rootTP, parts := rootPartitions(plan, stps, nWorkers, partitionFactor)
		if jsp != nil {
			// rootTP is -1 when the partitioner fell back to a sequential
			// single-chunk join (small input, one worker, unsplittable root).
			if rootTP >= 0 {
				jsp.Set("root", stps[rootTP].idx)
			}
			jsp.Set("partitions", len(parts))
		}
		if len(parts) > 1 {
			chunks = make([]joinChunk, len(parts))
			fns := make([]func(), len(parts))
			for k, p := range parts {
				fns[k] = func() {
					run := newJoinRun(ctx, e, plan, stps, vars, nulreqd, makeEmit(&chunks[k]))
					run.restrictRoot(rootTP, p[0], p[1])
					run.run()
				}
			}
			runLimited(nWorkers, fns)
		}
	}
	if chunks == nil {
		// One sequential joinRun: always for the stream sink, and for the
		// collect sink when the partitioner declined to split.
		chunks = []joinChunk{{fn: fn}}
		newJoinRun(ctx, e, plan, stps, vars, nulreqd, makeEmit(&chunks[0])).run()
	}
	// The chunks' blocks are cut into rows, in partition order, in one
	// slice sized once; so are the changed flags of several chunks.
	var rows []Row
	changed := chunks[0].changed
	if fn == nil {
		total := 0
		for i := range chunks {
			total += chunks[i].kept
		}
		rows = make([]Row, 0, total)
		for i := range chunks {
			rows = chunks[i].appendRows(rows, len(vars))
		}
		if trackChanged && len(chunks) > 1 {
			changed = make([]bool, 0, total)
			for i := range chunks {
				changed = append(changed, chunks[i].changed...)
			}
		}
	}
	fanNullified := false
	kept, filterIn, fanNulls := 0, 0, 0
	for i := range chunks {
		fanNullified = fanNullified || chunks[i].fanNullified
		kept += chunks[i].kept
		filterIn += chunks[i].filterIn
		fanNulls += chunks[i].fanNulls
	}
	if sp != nil && placed.Any() {
		// The filter stage runs inline with join emission; the span records
		// its row accounting (rows entering the per-row post-pass vs rows
		// surviving the row filters; FaN nullifications don't drop rows).
		// A streamed join stopped early (LIMIT) has seen only a prefix.
		fsp := sp.Child("filter")
		fsp.Set("exprs", len(slaveFilters)+len(rowFilters))
		fsp.Set("rows_in", filterIn)
		fsp.Set("rows_out", kept)
		if len(slaveFilters) > 0 {
			fsp.Set("fan_nullified_rows", fanNulls)
		}
		fsp.End()
	}

	if nulreqd || fanNullified {
		rows, _ = dedupNullified(rows, changed)
		rows = bestMatch(rows)
		res.Stats.BestMatch = true
	}
	res.Rows = rows
	// A streamed Join stage includes fn: serialization interleaves with
	// enumeration, so downstream stage accounting treats serialize as the
	// residual of the request's wall time.
	res.Stats.Join = time.Since(tJoin)
	if sp != nil {
		n := len(rows)
		if fn != nil {
			n = kept // the rows the stream sink handed to fn
		}
		jsp.Set("rows", n)
		jsp.End()
		sp.Set("rows", n)
	}
	return res, nil
}

// emptyShortcut marks a branch the empty-master optimization answered.
func emptyShortcut(res *Result, sp *trace.Span) *Result {
	res.Stats.EmptyShortcut = true
	if sp != nil {
		sp.Set("empty_shortcut", true)
	}
	return res
}

// substSlot is a CheapSubst resolved against the row layout: column col
// takes cell, or the cell of column src when src >= 0.
type substSlot struct {
	col, src int
	cell     uint32
}

// resolveSubsts resolves the bindings of whole-scope equality filters that
// SubstituteCheapFilters folded into the patterns. The join sink
// re-injects them into every row that passes the row filters: the
// replaced variable's column would otherwise stay NULL even though the
// filter fixed its value in every row.
func resolveSubsts(eb execBranch, varIdx map[sparql.Var]int) []substSlot {
	var out []substSlot
	for k, cs := range eb.b.Substs {
		col, ok := varIdx[cs.Var]
		if !ok {
			continue
		}
		ss := substSlot{col: col, src: -1, cell: eb.substCells[k]}
		if cs.From != "" {
			if ss.src, ok = varIdx[cs.From]; !ok {
				continue
			}
		}
		out = append(out, ss)
	}
	return out
}

// activePrune masks a freshly loaded pattern with the bindings of already
// loaded patterns that share a join variable and are masters or peers of it
// (Section 5 init), and vice versa for already loaded slaves of the new
// pattern.
func (e *Engine) activePrune(st *tpState, loaded []*tpState, plan *planner.Plan) {
	for _, prev := range loaded {
		if prev == nil || prev.mat == nil || st.mat == nil {
			continue
		}
		for _, v := range st.vars() {
			if _, isJ := plan.GoJ.VarIdx[v]; !isJ {
				continue
			}
			if _, ok := prev.axisOf(v); !ok {
				continue
			}
			if plan.GoSN.TPIsMasterOf(prev.idx, st.idx) || plan.GoSN.TPArePeers(prev.idx, st.idx) {
				e.semiJoin(v, st, prev)
			}
			if plan.GoSN.TPIsMasterOf(st.idx, prev.idx) || plan.GoSN.TPArePeers(prev.idx, st.idx) {
				e.semiJoin(v, prev, st)
			}
		}
	}
}

// filterHolds evaluates expr on row, resolving only the cells it reads.
func filterHolds(expr sparql.Expr, row Row, varIdx map[sparql.Var]int, cells *Cells) bool {
	return EvalFilter(expr, func(v sparql.Var) rdf.Term {
		if i, ok := varIdx[v]; ok {
			return cells.Term(row[i])
		}
		return rdf.Term{}
	})
}

// nullifyScope nulls the variables owned by the given supernodes and
// cascades to dependent slaves, mirroring nullification. It returns the
// cascaded failed supernode set (so the caller can clear forced bindings
// of patterns in it) and whether any binding was cleared.
func (e *Engine) nullifyScope(row Row, r *joinRun, sns map[int]bool) (map[int]bool, bool) {
	failed := map[int]bool{}
	for sn := range sns {
		failed[sn] = true
	}
	r.cascadeFailures(failed)
	any := false
	for v, sn := range r.ownerSN {
		if sn >= 0 && failed[sn] && row[v] != 0 {
			row[v] = 0
			any = true
		}
	}
	return failed, any
}

// naiveOrders replaces the plan orders with a single arbitrary-rooted
// bottom-up/top-down pass over each GoJ component (the jvar-order
// ablation).
func naiveOrders(plan *planner.Plan) {
	var bu, td []int
	for _, comp := range plan.GoJ.Components() {
		tree := plan.GoJ.GetTree(comp, comp[0])
		bu = append(bu, tree.BottomUp()...)
		td = append(td, tree.TopDown()...)
	}
	plan.OrderBU, plan.OrderTD = bu, td
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// projection maps q's SELECT clause onto vars: the kept column positions
// and their names, in SELECT order; names absent from vars are dropped.
func projection(q *sparql.Query, vars []sparql.Var) ([]int, []sparql.Var) {
	pos := make(map[sparql.Var]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	idx := make([]int, 0, len(q.Select))
	out := make([]sparql.Var, 0, len(q.Select))
	for _, v := range q.Select {
		if p, ok := pos[v]; ok {
			idx = append(idx, p)
			out = append(out, v)
		}
	}
	return idx, out
}

// project reduces the rows to the SELECTed variables, in SELECT order,
// carving every projected row from one block.
func (res *Result) project(q *sparql.Query) {
	idx, vars := projection(q, res.Vars)
	w := len(idx)
	block := make([]uint32, len(res.Rows)*w)
	for i, r := range res.Rows {
		nr := Row(block[i*w : (i+1)*w : (i+1)*w])
		for k, p := range idx {
			nr[k] = r[p]
		}
		res.Rows[i] = nr
	}
	res.Vars = vars
}

// distinct removes duplicate rows, preserving first occurrences. Equal
// cells are equal terms, so the rows are keyed by their cells.
func (res *Result) distinct() {
	seen := map[string]struct{}{}
	var buf []byte
	out := res.Rows[:0]
	for _, r := range res.Rows {
		buf = r.appendKey(buf[:0])
		if _, dup := seen[string(buf)]; !dup {
			seen[string(buf)] = struct{}{}
			out = append(out, r)
		}
	}
	res.Rows = out
}

// Describe returns a human-readable plan summary, used by the CLI and
// Store.Explain: one entry per branch that executes, with the plan its
// executions use — the one in p, planned here if no execution made it yet.
func (e *Engine) Describe(p *Prepared) (string, error) {
	if p.err != nil {
		return "", p.err
	}
	out := ""
	for i, eb := range p.execs {
		bp, _ := e.planOf(p, i)
		if bp.err != nil {
			return "", bp.err
		}
		plan := bp.plan
		out += fmt.Sprintf("branch %d: %s\n  GoSN: %s\n  cyclic=%v greedy=%v best-match=%v\n",
			i, eb.b.Tree.Serialize(), plan.GoSN, plan.Cyclic, plan.Greedy, plan.NeedsBestMatch)
		if k := bp.emptyAt; k >= 0 {
			out += fmt.Sprintf("  empty: pattern %d %s is an absolute master with count 0; nothing loads\n",
				k, plan.GoSN.Patterns[k])
		}
	}
	return out, nil
}
