package engine

import (
	"encoding/binary"
	"sync"

	"repro/internal/rdf"
)

// Row is one query result: cells aligned with the result's variable list.
// Cell 0 is a NULL (the variable is unbound in this row); every other
// cell names one term, canonically within one snapshot, so two cells of
// one query are equal exactly when their terms are (see Cells). A row
// holds no pointers: the sink, dedup, best-match, DISTINCT and NULL
// counting compare uint32s, and only FILTER, ORDER BY and the consumer
// resolve the cells they read.
type Row []uint32

// IsNull reports whether column i of the row is NULL.
func (r Row) IsNull(i int) bool { return r[i] == 0 }

// NullCount returns the number of NULL columns.
func (r Row) NullCount() int {
	n := 0
	for _, c := range r {
		if c == 0 {
			n++
		}
	}
	return n
}

// appendKey appends the row's cells to b, four bytes each: a map key
// that is equal for equal rows of one width.
func (r Row) appendKey(b []byte) []byte {
	for _, c := range r {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return b
}

// key renders the row as a map key.
func (r Row) key() string { return string(r.appendKey(make([]byte, 0, 4*len(r)))) }

// Cells resolves the cells of one query's rows to terms. A snapshot's
// cells are laid out in three bands:
//
//   - 1..NumSO: a term with an S/O ID has that ID as its cell;
//   - NumSO+pid: a predicate that is never a subject or object (a
//     predicate that is one has its S/O ID instead);
//   - past NumSO+NumPredicates: the query's own constants, such as a
//     cheap-filter term the dictionary lacks or the synthetic witness.
//
// The zero Term is a NULL wherever it occurs, so the degenerate IRI <>,
// which equals it, has cell 0 in every band.
//
// A Cells is complete once the query is prepared and read-only after, so
// any number of goroutines may resolve through it. It keeps the
// snapshot's dictionary reachable, so a result resolves to the same terms
// after later writes and compactions.
type Cells struct {
	dict     *rdf.Dictionary
	so       []rdf.Term
	preds    []rdf.Term
	predCell []uint32 // per pid (index 0 unused); the snapshot's cellTables.pred
	extra    []rdf.Term
}

// cellTables maps the IDs of the engine's snapshot to cells. They are
// built on the engine's first query and shared by every query after.
type cellTables struct {
	once sync.Once
	// pred maps each pid to its cell.
	pred []uint32
	// so maps each S/O ID to its cell. It is nil, and every S/O ID is its
	// own cell, unless the snapshot holds the zero Term as a subject or
	// object; its ID then maps to 0.
	so []uint32
}

// cellTables returns the engine's ID→cell tables.
func (e *Engine) cellTables() *cellTables {
	t := &e.cells
	t.once.Do(func() {
		preds := e.dict.PredicateTerms()
		nSO := uint32(e.dict.NumSO())
		t.pred = make([]uint32, len(preds)+1)
		for i, p := range preds {
			switch id := e.dict.SOID(p); {
			case p.IsZero(): // cell 0
			case id != 0:
				t.pred[i+1] = uint32(id)
			default:
				t.pred[i+1] = nSO + uint32(i+1)
			}
		}
		if zero := e.dict.SOID(rdf.Term{}); zero != 0 {
			t.so = make([]uint32, nSO+1)
			for id := range t.so {
				t.so[id] = uint32(id)
			}
			t.so[zero] = 0
		}
	})
	return t
}

// newCells returns the resolver of one query over the engine's snapshot,
// with no constants of its own yet.
func (e *Engine) newCells() *Cells {
	return &Cells{dict: e.dict, so: e.dict.SOTerms(), preds: e.dict.PredicateTerms(), predCell: e.cellTables().pred}
}

// cell returns the cell of t, registering a term the snapshot lacks as
// one of the query's constants. It runs only while the query is prepared.
func (c *Cells) cell(t rdf.Term) uint32 {
	if t.IsZero() {
		return 0
	}
	if id := c.dict.SOID(t); id != 0 {
		return uint32(id)
	}
	if pid := c.dict.PredicateID(t); pid != 0 {
		return c.predCell[pid]
	}
	base := uint32(len(c.so) + len(c.preds))
	for i, x := range c.extra {
		if x == t {
			return base + uint32(i+1)
		}
	}
	c.extra = append(c.extra, t)
	return base + uint32(len(c.extra))
}

// Term resolves one cell; cell 0 resolves to the zero Term (NULL).
func (c *Cells) Term(x uint32) rdf.Term {
	if x == 0 {
		return rdf.Term{}
	}
	i := int(x) - 1
	if i < len(c.so) {
		return c.so[i]
	}
	if i -= len(c.so); i < len(c.preds) {
		return c.preds[i]
	}
	return c.extra[i-len(c.preds)]
}

// Resolve writes the terms of row into into, which must be as long as
// row, and returns it.
func (c *Cells) Resolve(row Row, into []rdf.Term) []rdf.Term {
	for i, x := range row {
		into[i] = c.Term(x)
	}
	return into
}

// Terms resolves every row of the result, all of them into one block of
// terms.
func (res *Result) Terms() [][]rdf.Term {
	out := make([][]rdf.Term, len(res.Rows))
	n := 0
	for _, r := range res.Rows {
		n += len(r)
	}
	block := make([]rdf.Term, n)
	for i, r := range res.Rows {
		out[i] = res.Cells.Resolve(r, block[:len(r):len(r)])
		block = block[len(r):]
	}
	return out
}
