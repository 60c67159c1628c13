// Package apsp implements the all-pairs shortest-paths algorithms of
// the paper and its related work:
//
// Sequential baselines:
//   - FloydWarshall — the classical O(n³) dynamic program [Floyd 62,
//     Warshall 62], the correctness oracle for everything else.
//   - Johnson — Dijkstra from every source [Johnson 77].
//   - SuperFW — the supernodal sparse APSP of Sao et al. (PPoPP'20):
//     nested-dissection ordering + eTree-guided elimination, skipping
//     cousin-block computation.
//
// Distributed algorithms (on the simulated machine of internal/comm):
//   - Dist2DFW — blocked Floyd–Warshall on a √p×√p grid in block
//     layout.
//   - DCAPSP — the divide-and-conquer 2D-DC-APSP of Solomonik, Buluç,
//     Demmel (IPDPS'13) on a block-cyclic layout.
//   - SparseAPSPWith — the paper's 2D-SPARSE-APSP (Algorithm 1), with the
//     Corollary 5.5 unit mapping (one level-1 unit per block on the
//     block's owner, on the pruned wire) or the Section 5.2.2 sequential
//     strategy (SparseOptions.R4Strategy), per-level cost breakdown,
//     and pluggable orderings (e.g. from partition.DistributedND).
//
// Extras: SuccessorsFromDist reconstructs actual shortest paths from
// any solver's distances, and VerifyDistances certifies a distance
// matrix without recomputation.
package apsp

import (
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// FloydWarshall computes the APSP distance matrix of g with the
// classical algorithm. The second return value is the number of
// semiring operations performed.
func FloydWarshall(g *graph.Graph) (*semiring.Matrix, int64) {
	n := g.N()
	m := semiring.FromSlice(n, n, g.AdjacencyMatrix())
	ops := semiring.ClassicalFW(m)
	return m, ops
}
