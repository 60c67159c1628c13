// Package graph provides the weighted undirected graphs the APSP
// algorithms operate on (Section 3.2 of the paper): n vertices, edge
// weights that may be negative as long as no negative cycle exists, and
// absent edges treated as +∞.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the weight of an absent edge.
var Inf = math.Inf(1)

// Edge is a half-edge: the endpoint and the weight.
type Edge struct {
	To int
	W  float64
}

// Graph is a weighted undirected graph in adjacency-list form. Vertices
// are 0-based. Parallel edges are collapsed to the minimum weight when
// built through AddEdge.
type Graph struct {
	n   int
	m   int // number of undirected edges
	adj [][]Edge
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Adj returns the adjacency list of vertex v. The slice is owned by the
// graph; callers must not modify it.
func (g *Graph) Adj(v int) []Edge { return g.adj[v] }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether the undirected edge {u, v} exists and returns
// its weight (Inf when absent).
func (g *Graph) HasEdge(u, v int) (float64, bool) {
	if i := g.half(u, v); i >= 0 {
		return g.adj[u][i].W, true
	}
	return Inf, false
}

// AddEdge inserts the undirected edge {u, v} with weight w. Self-loops
// are ignored (the distance matrix diagonal is always 0). If the edge
// already exists, the smaller weight wins. The duplicate check scans the
// shorter of the two adjacency lists, so adding every leaf of a star
// costs linear time, not the hub's degree per edge; only a duplicate
// that lowers the weight also scans the longer list.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} outside [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	a, b := g.shorter(u, v)
	if i := g.half(a, b); i >= 0 {
		if w < g.adj[a][i].W {
			g.adj[a][i].W = w
			g.adj[b][g.half(b, a)].W = w
		}
		return
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
	g.m++
}

// Builder builds a graph edge by edge for a parser: Add is AddEdge, with
// the same adjacency order and the same smaller-weight-wins rule, but no
// duplicate check scans more than hubDegree entries, however many lines
// repeat an edge. Adjacency lists start in one slab of slabSlots per
// vertex, sized when the builder is made, and a longer list grows by
// append. The first check that would scan a list past hubDegree builds
// a neighbour → slot index for it, kept up to date from then on; the
// index lives as long as the builder and never in the Graph.
type Builder struct {
	g    *Graph
	slab []Edge
	hubs map[int]map[int]int
}

// slabSlots is the capacity each vertex's list starts with.
const slabSlots = 4

// hubDegree is the longest adjacency list a duplicate check scans.
const hubDegree = 16

// NewBuilder returns a builder of a graph on n vertices. edges bounds
// how many edges will be added; the slab holds slabSlots for each
// vertex that many edges can touch.
func NewBuilder(n, edges int) *Builder {
	return &Builder{g: New(n), slab: make([]Edge, slabSlots*min(n, 2*edges))}
}

// Graph returns the graph built so far.
func (b *Builder) Graph() *Graph { return b.g }

// Add inserts the undirected edge {u, v} with weight w as AddEdge does.
func (b *Builder) Add(u, v int, w float64) {
	g := b.g
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} outside [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	a, c := g.shorter(u, v)
	if i := b.half(a, c); i >= 0 {
		if w < g.adj[a][i].W {
			g.adj[a][i].W = w
			g.adj[c][b.half(c, a)].W = w
		}
		return
	}
	b.push(u, v, w)
	b.push(v, u, w)
	g.m++
}

// half is Graph.half, looked up in u's index once u's list is past
// hubDegree.
func (b *Builder) half(u, v int) int {
	adj := b.g.adj[u]
	if len(adj) <= hubDegree {
		return b.g.half(u, v)
	}
	index := b.hubs[u]
	if index == nil {
		index = make(map[int]int, len(adj))
		for i, e := range adj {
			index[e.To] = i
		}
		if b.hubs == nil {
			b.hubs = make(map[int]map[int]int)
		}
		b.hubs[u] = index
	}
	if i, ok := index[v]; ok {
		return i
	}
	return -1
}

// push appends the half-edge u→v to u's list, which takes its slab
// slots first, and to u's index if it has one.
func (b *Builder) push(u, v int, w float64) {
	adj := b.g.adj[u]
	if adj == nil && len(b.slab) >= slabSlots {
		adj, b.slab = b.slab[:0:slabSlots], b.slab[slabSlots:]
	}
	if index := b.hubs[u]; index != nil {
		index[v] = len(adj)
	}
	b.g.adj[u] = append(adj, Edge{To: v, W: w})
}

// SetEdge overwrites the weight of the existing undirected edge {u, v}
// (both half-edges), reporting whether the edge was found. Unlike
// AddEdge it can raise a weight, but it never changes the edge
// structure — the contract the incremental reweighting path relies on.
func (g *Graph) SetEdge(u, v int, w float64) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	a, b := g.shorter(u, v)
	i := g.half(a, b)
	if i < 0 {
		return false
	}
	g.adj[a][i].W = w
	g.adj[b][g.half(b, a)].W = w
	return true
}

// shorter orders the endpoints of {u, v} by adjacency-list length,
// shorter first.
func (g *Graph) shorter(u, v int) (int, int) {
	if len(g.adj[v]) < len(g.adj[u]) {
		return v, u
	}
	return u, v
}

// half returns the index of the half-edge u→v in u's adjacency list, or
// -1 if there is none.
func (g *Graph) half(u, v int) int {
	for i, e := range g.adj[u] {
		if e.To == v {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for v := range g.adj {
		c.adj[v] = append([]Edge(nil), g.adj[v]...)
	}
	return c
}

// Permute returns the graph with vertices renumbered so that old vertex
// v becomes perm[v]. perm must be a permutation of [0, n).
func (g *Graph) Permute(perm []int) *Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: permutation length %d for %d vertices", len(perm), g.n))
	}
	seen := make([]bool, g.n)
	for _, p := range perm {
		if p < 0 || p >= g.n || seen[p] {
			panic("graph: perm is not a permutation")
		}
		seen[p] = true
	}
	out := New(g.n)
	out.m = g.m
	for v := range g.adj {
		nv := perm[v]
		out.adj[nv] = make([]Edge, len(g.adj[v]))
		for i, e := range g.adj[v] {
			out.adj[nv][i] = Edge{To: perm[e.To], W: e.W}
		}
	}
	return out
}

// Subgraph returns the induced subgraph on vertices, along with the
// original index of each new vertex (new index i corresponds to
// vertices[i]).
func (g *Graph) Subgraph(vertices []int) *Graph {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
	}
	out := New(len(vertices))
	for i, v := range vertices {
		for _, e := range g.adj[v] {
			if j, ok := idx[e.To]; ok && j > i {
				out.AddEdge(i, j, e.W)
			}
		}
	}
	return out
}

// Edges returns all undirected edges as (u, v, w) with u < v, sorted.
type EdgeTriple struct {
	U, V int
	W    float64
}

// Edges lists the undirected edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []EdgeTriple {
	out := make([]EdgeTriple, 0, g.m)
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < e.To {
				out = append(out, EdgeTriple{U: u, V: e.To, W: e.W})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// AdjacencyMatrix returns the dense n×n adjacency matrix in row-major
// order: 0 on the diagonal, edge weights where edges exist, Inf
// elsewhere — the distance-matrix initial state of Section 3.2.
func (g *Graph) AdjacencyMatrix() []float64 {
	a := make([]float64, g.n*g.n)
	for i := range a {
		a[i] = Inf
	}
	for v := 0; v < g.n; v++ {
		a[v*g.n+v] = 0
		for _, e := range g.adj[v] {
			if e.W < a[v*g.n+e.To] {
				a[v*g.n+e.To] = e.W
			}
		}
	}
	return a
}
