package rdf

import (
	"sort"
)

// Graph is an in-memory collection of triples with duplicate suppression.
// It is the loading-time representation; querying happens against the
// BitMat index built from it.
type Graph struct {
	triples []Triple
	seen    map[tripleKey]struct{}
}

type tripleKey struct{ s, p, o string }

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{seen: map[tripleKey]struct{}{}}
}

// Add inserts a triple, ignoring exact duplicates. It reports whether the
// triple was new.
func (g *Graph) Add(tr Triple) bool {
	k := tripleKey{tr.S.Key(), tr.P.Key(), tr.O.Key()}
	if _, dup := g.seen[k]; dup {
		return false
	}
	g.seen[k] = struct{}{}
	g.triples = append(g.triples, tr)
	return true
}

// AddAll inserts every triple of trs and returns the number inserted.
func (g *Graph) AddAll(trs []Triple) int {
	n := 0
	for _, tr := range trs {
		if g.Add(tr) {
			n++
		}
	}
	return n
}

// Remove deletes a triple if present and reports whether it was there. The
// surviving triples get a fresh backing slice so that snapshots taken via
// Triples before the removal keep seeing their original contents.
func (g *Graph) Remove(tr Triple) bool {
	k := tripleKey{tr.S.Key(), tr.P.Key(), tr.O.Key()}
	if _, ok := g.seen[k]; !ok {
		return false
	}
	delete(g.seen, k)
	out := make([]Triple, 0, len(g.triples)-1)
	for _, t := range g.triples {
		if t.S.Key() == k.s && t.P.Key() == k.p && t.O.Key() == k.o {
			continue
		}
		out = append(out, t)
	}
	g.triples = out
	return true
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		triples: append(make([]Triple, 0, len(g.triples)), g.triples...),
		seen:    make(map[tripleKey]struct{}, len(g.seen)),
	}
	for k := range g.seen {
		ng.seen[k] = struct{}{}
	}
	return ng
}

// Len reports the number of distinct triples.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns the triples in insertion order. The slice is shared; do
// not mutate it.
func (g *Graph) Triples() []Triple { return g.triples }

// Contains reports whether the graph holds the exact triple.
func (g *Graph) Contains(tr Triple) bool {
	_, ok := g.seen[tripleKey{tr.S.Key(), tr.P.Key(), tr.O.Key()}]
	return ok
}

// Stats summarizes the graph the way Table 6.1 of the paper does.
type Stats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
	Shared     int // |Vs ∩ Vo|
}

// Stats computes dataset characteristics, counting each term's roles
// from the triples.
func (g *Graph) Stats() Stats {
	const subj, obj = 1, 2
	roles := map[string]uint8{}
	preds := map[string]bool{}
	for _, tr := range g.triples {
		roles[tr.S.Key()] |= subj
		roles[tr.O.Key()] |= obj
		preds[tr.P.Key()] = true
	}
	st := Stats{Triples: len(g.triples), Predicates: len(preds)}
	for _, r := range roles {
		if r&subj != 0 {
			st.Subjects++
		}
		if r&obj != 0 {
			st.Objects++
		}
		if r == subj|obj {
			st.Shared++
		}
	}
	return st
}

// Dictionary builds the dictionary for the graph's current contents.
func (g *Graph) Dictionary() *Dictionary {
	b := NewDictionaryBuilder()
	for _, tr := range g.triples {
		b.Add(tr)
	}
	d, _ := b.Build()
	return d
}

// Predicates returns the distinct predicate terms sorted by their
// N-Triples rendering, useful for generators and diagnostics.
func (g *Graph) Predicates() []Term {
	set := map[string]Term{}
	for _, tr := range g.triples {
		set[tr.P.Key()] = tr.P
	}
	out := make([]Term, 0, len(set))
	for _, t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
