package apsp

import (
	"fmt"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// Johnson computes APSP by running Dijkstra from every source — the
// theoretically faster choice for sparse graphs (Section 2), used here
// as an independent correctness oracle for the matrix-based solvers.
// For undirected graphs a negative edge is a negative cycle, so
// negative weights are rejected (the Bellman–Ford reweighting step of
// the directed algorithm has nothing it could fix).
func Johnson(g *graph.Graph) (*semiring.Matrix, error) {
	if err := CheckNonNegative(g); err != nil {
		return nil, err
	}
	n := g.N()
	dist := semiring.NewMatrix(n, n)
	var h pairHeap
	for src := 0; src < n; src++ {
		d := dist.V[src*n : (src+1)*n]
		d[src] = 0
		h.push(0, src)
		dijkstra(g, &h, d, nil)
	}
	return dist, nil
}

// CheckNonNegative rejects a graph with a negative edge weight: in an
// undirected graph a negative edge is a negative cycle, under which
// shortest paths are undefined.
func CheckNonNegative(g *graph.Graph) error {
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Adj(u) {
			if e.W < 0 {
				return fmt.Errorf("apsp: negative edge {%d,%d} weight %g is a negative cycle in an undirected graph", u, e.To, e.W)
			}
		}
	}
	return nil
}

// dijkstra is the package's one Dijkstra. h holds the seeded frontier,
// and dist the seeds' values with Inf everywhere else still to be
// settled. It pops h empty, skipping stale entries, and relaxes each
// popped vertex's edges into the vertices that in marks (every vertex
// when in is nil), so dist ends as the shortest distances from the
// seeds through g's non-negative edges. It returns the adjacency
// entries it probed. Johnson seeds one source and relaxes every
// vertex; the repair's boundary search seeds a row's reset targets
// from their settled neighbours and relaxes only those targets.
func dijkstra(g *graph.Graph, h *pairHeap, dist []float64, in []bool) int64 {
	var probes int64
	for len(h.d) > 0 {
		dv, v := h.pop()
		if dv > dist[v] {
			continue
		}
		adj := g.Adj(v)
		for _, e := range adj {
			if in != nil && !in[e.To] {
				continue
			}
			if nd := dv + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				h.push(nd, e.To)
			}
		}
		probes += int64(len(adj))
	}
	return probes
}

// pairHeap is a small binary min-heap of (dist, vertex) pairs with
// lazy deletion: a vertex may appear multiple times and stale entries
// are skipped on pop.
type pairHeap struct {
	d []float64
	v []int32
}

func (h *pairHeap) push(dist float64, vtx int) {
	h.d = append(h.d, dist)
	h.v = append(h.v, int32(vtx))
	i := len(h.d) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.d[p] <= h.d[i] {
			break
		}
		h.d[p], h.d[i] = h.d[i], h.d[p]
		h.v[p], h.v[i] = h.v[i], h.v[p]
		i = p
	}
}

func (h *pairHeap) pop() (float64, int) {
	top, tv := h.d[0], h.v[0]
	last := len(h.d) - 1
	h.d[0], h.v[0] = h.d[last], h.v[last]
	h.d, h.v = h.d[:last], h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.d[l] < h.d[s] {
			s = l
		}
		if r < last && h.d[r] < h.d[s] {
			s = r
		}
		if s == i {
			break
		}
		h.d[s], h.d[i] = h.d[i], h.d[s]
		h.v[s], h.v[i] = h.v[i], h.v[s]
		i = s
	}
	return top, int(tv)
}
