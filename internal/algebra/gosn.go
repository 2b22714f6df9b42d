package algebra

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sparql"
)

// Supernode encapsulates one OPT-free BGP of the query (Section 2.1).
type Supernode struct {
	ID int
	// TPs are the global indexes of the supernode's triple patterns in the
	// query-wide pattern list, GoSN.Patterns.
	TPs []int
}

// EdgeKind distinguishes the two GoSN edge types.
type EdgeKind uint8

const (
	// Unidirectional edges encode a left-outer join from master to slave.
	Unidirectional EdgeKind = iota
	// Bidirectional edges encode an inner join between peers.
	Bidirectional
)

// Edge is one GoSN edge between the supernodes From and To. For
// bidirectional edges the orientation is irrelevant.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// GoSN is the graph of supernodes capturing the nesting of BGP and OPT
// patterns of a query.
type GoSN struct {
	Supernodes []*Supernode
	Edges      []Edge

	// Patterns is the query-wide triple pattern list; Supernode.TPs and the
	// TP-level relations index into it.
	Patterns []sparql.TriplePattern
	// SNOfTP maps a global TP index to its supernode ID.
	SNOfTP []int

	// Derived relations, computed by finalize.
	peersOf   [][]int  // peer class per supernode (including itself)
	slavesOf  [][]bool // slavesOf[i][j]: i is a (transitive) master of j
	absMaster []bool
}

// BuildGoSN constructs the GoSN of a union- and filter-free tree. Leaves
// become supernodes; every LeftJoin adds a unidirectional edge between the
// leftmost leaves of its sides, every Join a bidirectional edge, processing
// inner operators first (Section 2.1).
func BuildGoSN(t Tree) (*GoSN, error) {
	g := &GoSN{}
	leafID := map[*Leaf]int{}
	var walk func(Tree) error
	// First pass: collect supernodes left to right.
	walk = func(t Tree) error {
		switch n := t.(type) {
		case *Leaf:
			sn := &Supernode{ID: len(g.Supernodes)}
			for _, tp := range n.Patterns {
				sn.TPs = append(sn.TPs, len(g.Patterns))
				g.Patterns = append(g.Patterns, tp)
				g.SNOfTP = append(g.SNOfTP, sn.ID)
			}
			leafID[n] = sn.ID
			g.Supernodes = append(g.Supernodes, sn)
			return nil
		case *Join:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *LeftJoin:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *UnionT, *FilterT:
			return fmt.Errorf("algebra: GoSN requires a union- and filter-free tree; rewrite first")
		}
		return fmt.Errorf("algebra: unknown tree node %T", t)
	}
	if err := walk(t); err != nil {
		return nil, err
	}
	// Second pass: add edges, innermost operators first (post-order).
	var leftmost func(Tree) int
	leftmost = func(t Tree) int {
		switch n := t.(type) {
		case *Leaf:
			return leafID[n]
		case *Join:
			return leftmost(n.L)
		case *LeftJoin:
			return leftmost(n.L)
		}
		panic("algebra: unexpected node")
	}
	var addEdges func(Tree)
	addEdges = func(t Tree) {
		switch n := t.(type) {
		case *Join:
			addEdges(n.L)
			addEdges(n.R)
			g.Edges = append(g.Edges, Edge{From: leftmost(n.L), To: leftmost(n.R), Kind: Bidirectional})
		case *LeftJoin:
			addEdges(n.L)
			addEdges(n.R)
			g.Edges = append(g.Edges, Edge{From: leftmost(n.L), To: leftmost(n.R), Kind: Unidirectional})
		}
	}
	addEdges(t)
	g.finalize()
	return g, nil
}

// finalize recomputes the derived relations from Supernodes and Edges. It
// is called after construction and after the NWD transformation.
func (g *GoSN) finalize() {
	n := len(g.Supernodes)
	// Peer classes: connected components over bidirectional edges.
	parent := make([]int, n)
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
	for _, e := range g.Edges {
		if e.Kind == Bidirectional {
			parent[find(e.From)] = find(e.To)
		}
	}
	classes := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		classes[r] = append(classes[r], i)
	}
	g.peersOf = make([][]int, n)
	for _, members := range classes {
		sort.Ints(members)
		for _, m := range members {
			g.peersOf[m] = members
		}
	}
	// Master relation: i is a master of j if j is reachable from i along a
	// path of edges (bidirectional edges both ways, unidirectional edges
	// forward only) containing at least one unidirectional edge.
	adj := make([][]Edge, n)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e)
		if e.Kind == Bidirectional {
			adj[e.To] = append(adj[e.To], Edge{From: e.To, To: e.From, Kind: Bidirectional})
		}
	}
	g.slavesOf = make([][]bool, n)
	for i := 0; i < n; i++ {
		g.slavesOf[i] = make([]bool, n)
		// BFS over states (node, sawUni).
		type state struct {
			node   int
			sawUni bool
		}
		seen := map[state]bool{}
		queue := []state{{i, false}}
		seen[queue[0]] = true
		for len(queue) > 0 {
			st := queue[0]
			queue = queue[1:]
			if st.sawUni && st.node != i {
				g.slavesOf[i][st.node] = true
			}
			for _, e := range adj[st.node] {
				next := state{e.To, st.sawUni || e.Kind == Unidirectional}
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	g.absMaster = make([]bool, n)
	for j := 0; j < n; j++ {
		isSlave := false
		for i := 0; i < n; i++ {
			if i != j && g.slavesOf[i][j] {
				isSlave = true
				break
			}
		}
		g.absMaster[j] = !isSlave
	}
}

// NumSupernodes returns the number of supernodes.
func (g *GoSN) NumSupernodes() int { return len(g.Supernodes) }

// Peers returns the peer class of supernode i (always including i).
func (g *GoSN) Peers(i int) []int { return g.peersOf[i] }

// ArePeers reports whether supernodes i and j are peers.
func (g *GoSN) ArePeers(i, j int) bool {
	for _, p := range g.peersOf[i] {
		if p == j {
			return true
		}
	}
	return false
}

// IsMaster reports whether supernode i is a (transitive) master of j.
func (g *GoSN) IsMaster(i, j int) bool { return g.slavesOf[i][j] }

// IsAbsoluteMaster reports whether supernode i is an absolute master.
func (g *GoSN) IsAbsoluteMaster(i int) bool { return g.absMaster[i] }

// AbsoluteMasters returns the IDs of all absolute master supernodes.
func (g *GoSN) AbsoluteMasters() []int {
	var out []int
	for i, a := range g.absMaster {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// TPIsMasterOf reports whether global TP a is a master of TP b, which holds
// exactly when their supernodes are in a master-slave relationship
// (Section 2.2 extends the relations to enclosed triple patterns).
func (g *GoSN) TPIsMasterOf(a, b int) bool {
	return g.IsMaster(g.SNOfTP[a], g.SNOfTP[b])
}

// TPArePeers reports whether TPs a and b are in the same supernode or in
// peer supernodes.
func (g *GoSN) TPArePeers(a, b int) bool {
	return g.ArePeers(g.SNOfTP[a], g.SNOfTP[b])
}

// MastersOf returns the supernodes that are masters of j, ascending.
func (g *GoSN) MastersOf(j int) []int {
	var out []int
	for i := 0; i < len(g.Supernodes); i++ {
		if i != j && g.slavesOf[i][j] {
			out = append(out, i)
		}
	}
	return out
}

// SlaveSupernodes returns all non-absolute-master supernodes ascending.
func (g *GoSN) SlaveSupernodes() []int {
	var out []int
	for i, a := range g.absMaster {
		if !a {
			out = append(out, i)
		}
	}
	return out
}

// VarsOfSupernode returns the variables of supernode i's patterns.
func (g *GoSN) VarsOfSupernode(i int) map[sparql.Var]bool {
	m := map[sparql.Var]bool{}
	for _, tp := range g.Supernodes[i].TPs {
		for _, v := range g.Patterns[tp].Vars() {
			m[v] = true
		}
	}
	return m
}

// String renders the GoSN edges for debugging and golden tests, e.g.
// "SN0->SN1, SN0<->SN2".
func (g *GoSN) String() string {
	parts := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		arrow := "->"
		if e.Kind == Bidirectional {
			arrow = "<->"
		}
		parts = append(parts, fmt.Sprintf("SN%d%sSN%d", e.From, arrow, e.To))
	}
	return strings.Join(parts, ", ")
}
