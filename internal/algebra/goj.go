package algebra

import (
	"fmt"
	"sort"

	"repro/internal/sparql"
)

// GoJ is the graph of join variables of Section 3.1: one node per join
// variable (a variable occurring in at least two triple patterns), one edge
// per triple pattern that contains two join variables. Parallel edges count
// as a cycle (two patterns joining the same variable pair cannot be made
// minimal by per-variable semi-joins), matching the Lemma 3.2 construction.
type GoJ struct {
	// Vars lists the join variables in deterministic order.
	Vars []sparql.Var
	// VarIdx maps a join variable to its index in Vars.
	VarIdx map[sparql.Var]int
	// TPsOfVar[i] lists the global TP indexes containing Vars[i].
	TPsOfVar [][]int
	// JvarsOfTP[t] lists the jvar indexes occurring in pattern t.
	JvarsOfTP [][]int
	// Edges holds one entry per triple pattern with two distinct join
	// variables: the pair of jvar indexes, smaller first.
	Edges []GoJEdge
	// Cyclic reports whether the GoJ (as a multigraph) has a cycle.
	Cyclic bool
	// adjacency over the simple graph (dedup), for tree traversals.
	adj [][]int
}

// GoJEdge is one multigraph edge of the GoJ.
type GoJEdge struct {
	A, B int // jvar indexes, A <= B
	TP   int // the triple pattern inducing the edge
}

// ErrPredicateJoin is returned when a query joins on the predicate
// dimension, which the paper's index does not support (footnote 5).
var ErrPredicateJoin = fmt.Errorf("algebra: joins on the predicate position are not supported")

// BuildGoJ constructs the GoJ for the triple patterns of a GoSN. A variable
// is a join variable when it occurs in two or more patterns, or twice
// within one pattern (an S-O self join). Shared variables in predicate
// position yield ErrPredicateJoin.
func BuildGoJ(patterns []sparql.TriplePattern) (*GoJ, error) {
	occur := map[sparql.Var]int{}
	for _, tp := range patterns {
		for _, pos := range []sparql.Node{tp.S, tp.P, tp.O} {
			if pos.IsVar {
				occur[pos.Var]++
			}
		}
	}
	isJvar := func(v sparql.Var) bool { return occur[v] >= 2 }

	// Predicate-position join variables are unsupported.
	for _, tp := range patterns {
		if tp.P.IsVar && isJvar(tp.P.Var) {
			return nil, ErrPredicateJoin
		}
	}

	var jvars []sparql.Var
	for v, n := range occur {
		if n >= 2 {
			jvars = append(jvars, v)
		}
	}
	sort.Slice(jvars, func(i, j int) bool { return jvars[i] < jvars[j] })

	g := &GoJ{
		Vars:      jvars,
		VarIdx:    make(map[sparql.Var]int, len(jvars)),
		TPsOfVar:  make([][]int, len(jvars)),
		JvarsOfTP: make([][]int, len(patterns)),
	}
	for i, v := range jvars {
		g.VarIdx[v] = i
	}
	for t, tp := range patterns {
		seen := map[int]bool{}
		var tpJvars []int
		selfJoin := false
		for _, pos := range []sparql.Node{tp.S, tp.O} {
			if !pos.IsVar {
				continue
			}
			idx, ok := g.VarIdx[pos.Var]
			if !ok {
				continue
			}
			if seen[idx] {
				selfJoin = true
				continue
			}
			seen[idx] = true
			tpJvars = append(tpJvars, idx)
			g.TPsOfVar[idx] = append(g.TPsOfVar[idx], t)
		}
		g.JvarsOfTP[t] = tpJvars
		if selfJoin {
			// (?x p ?x): a one-node loop, which makes the GoJ cyclic.
			g.Cyclic = true
		}
		if len(tpJvars) == 2 {
			a, b := tpJvars[0], tpJvars[1]
			if a > b {
				a, b = b, a
			}
			g.Edges = append(g.Edges, GoJEdge{A: a, B: b, TP: t})
		}
	}

	// Cycle detection on the multigraph with union-find: an edge whose
	// endpoints are already connected closes a cycle (this covers parallel
	// edges too).
	parent := make([]int, len(jvars))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	simple := map[[2]int]bool{}
	for _, e := range g.Edges {
		ra, rb := find(e.A), find(e.B)
		if ra == rb {
			g.Cyclic = true
		} else {
			parent[ra] = rb
		}
		simple[[2]int{e.A, e.B}] = true
	}
	g.adj = make([][]int, len(jvars))
	for k := range simple {
		g.adj[k[0]] = append(g.adj[k[0]], k[1])
		g.adj[k[1]] = append(g.adj[k[1]], k[0])
	}
	for i := range g.adj {
		sort.Ints(g.adj[i])
	}
	return g, nil
}

// Components returns the connected components of the GoJ (jvar indexes,
// each sorted). Queries without Cartesian products normally have one.
func (g *GoJ) Components() [][]int {
	n := len(g.Vars)
	seen := make([]bool, n)
	var comps [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		var comp []int
		queue := []int{i}
		seen[i] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, nb := range g.adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedTree computes a spanning tree of the GoJ restricted to the node
// set nodes, rooted at root (the get-tree step of Algorithm 3.1). If the
// induced subgraph is disconnected, the remaining nodes are attached as
// additional roots so that traversals still cover every node.
type InducedTree struct {
	Root     int
	Children map[int][]int
	Nodes    []int
	// ExtraRoots holds roots of additional components (defensive; empty for
	// connected induced subgraphs).
	ExtraRoots []int
}

// GetTree builds the induced spanning tree over the given jvar indexes.
func (g *GoJ) GetTree(nodes []int, root int) *InducedTree {
	inSet := map[int]bool{}
	for _, n := range nodes {
		inSet[n] = true
	}
	if !inSet[root] {
		panic(fmt.Sprintf("algebra: root %d not in induced node set", root))
	}
	t := &InducedTree{Root: root, Children: map[int][]int{}}
	visited := map[int]bool{}
	bfs := func(r int) {
		visited[r] = true
		t.Nodes = append(t.Nodes, r)
		queue := []int{r}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range g.adj[cur] {
				if inSet[nb] && !visited[nb] {
					visited[nb] = true
					t.Children[cur] = append(t.Children[cur], nb)
					t.Nodes = append(t.Nodes, nb)
					queue = append(queue, nb)
				}
			}
		}
	}
	bfs(root)
	for _, n := range nodes {
		if !visited[n] {
			t.ExtraRoots = append(t.ExtraRoots, n)
			bfs(n)
		}
	}
	return t
}

// BottomUp returns the tree's nodes children-before-parents.
func (t *InducedTree) BottomUp() []int {
	order := t.TopDown()
	out := make([]int, len(order))
	for i, v := range order {
		out[len(order)-1-i] = v
	}
	return out
}

// TopDown returns the tree's nodes parents-before-children (BFS order from
// each root).
func (t *InducedTree) TopDown() []int {
	var out []int
	roots := append([]int{t.Root}, t.ExtraRoots...)
	for _, r := range roots {
		queue := []int{r}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			out = append(out, cur)
			queue = append(queue, t.Children[cur]...)
		}
	}
	return out
}
