package apsp

import (
	"fmt"
	"math"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// The classical Floyd–Warshall loop with in-loop successors: a second
// table builder, which breaks ties by its loop order where the served
// tables (SuccessorsFromDist) break them by the backward walk. Tests keep
// it as an independent path oracle and pin its table in
// TestPathIdentityGolden's fw column.

// FloydWarshallPaths runs the classical algorithm while maintaining
// successors, so Path can extract any shortest path in O(path length).
//
// The loop runs on the transposed problem — row j holds the distances
// and hops TOWARDS j — so the table comes out target-major with every
// access contiguous. On an undirected graph that is the same matrix:
// within step k neither row k nor column k changes, so every entry
// (i,j) and its mirror (j,i) take the minimum of the same two floats
// and stay bit-equal.
//
// It panics on a graph that holds a pair without a path inside one
// component — one joined only through edges of weight +Inf — because the
// table has no way to say so; SuccessorsFromDist reports the same as an
// error.
func FloydWarshallPaths(g *graph.Graph) *PathResult {
	n := g.N()
	d := semiring.FromSlice(n, n, g.AdjacencyMatrix())
	next := newSuccessors(g)
	slots := floydWarshallNext(g, d)
	for i, x := range slots {
		if v, u := i/n, i%n; x == -1 && u != v && next.adj.comp[u] == next.adj.comp[v] {
			panic(fmt.Sprintf("apsp: FloydWarshallPaths: no path from %d to %d inside one component (an edge of weight +Inf?)", u, v))
		}
	}
	next.packRows(slots)
	return &PathResult{Dist: d, next: next}
}

// floydWarshallNext runs the loop on d in place and returns the slots
// unpacked, n×n target-major, -1 for none. A slot is relative to its
// source i, which is the same on both sides of nextJ[i] = nextK[i], so
// the classical successor copy carries over unchanged.
func floydWarshallNext(g *graph.Graph, d *semiring.Matrix) []int32 {
	n := g.N()
	next := make([]int32, n*n)
	for i := range next {
		next[i] = -1
	}
	for u := 0; u < n; u++ {
		for s, e := range g.Adj(u) {
			if e.W <= d.At(e.To, u) && !math.IsInf(e.W, 1) {
				next[e.To*n+u] = int32(s)
			}
		}
	}
	for k := 0; k < n; k++ {
		rowK := d.V[k*n : (k+1)*n]
		nextK := next[k*n : (k+1)*n]
		for j := 0; j < n; j++ {
			dkj := d.V[j*n+k]
			if math.IsInf(dkj, 1) {
				continue
			}
			rowJ := d.V[j*n : (j+1)*n]
			nextJ := next[j*n : (j+1)*n]
			for i, dik := range rowK {
				if s := dik + dkj; s < rowJ[i] {
					rowJ[i] = s
					nextJ[i] = nextK[i]
				}
			}
		}
	}
	return next
}

// packRows packs a whole unpacked table, n×n target-major.
func (s *Successors) packRows(slots []int32) {
	for v := 0; v < s.n; v++ {
		s.packRow(v, slots[v*s.n:(v+1)*s.n])
	}
}
