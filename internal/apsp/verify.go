package apsp

import (
	"fmt"
	"math"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// VerifyDistances checks that d is a plausible APSP distance matrix for
// g without recomputing APSP: square of the right size, zero diagonal,
// symmetric, bounded above by direct edges, closed under the triangle
// inequality, and with Inf exactly between different connected
// components. It returns the first violation found, or nil. Used by
// the examples and available to downstream users as a cheap O(n³)
// certificate (the triangle check dominates).
func VerifyDistances(g *graph.Graph, d *semiring.Matrix) error {
	n := g.N()
	if d.Rows != n || d.Cols != n {
		return fmt.Errorf("apsp: distance matrix is %dx%d for %d vertices", d.Rows, d.Cols, n)
	}
	for i := 0; i < n; i++ {
		if d.At(i, i) != 0 {
			return fmt.Errorf("apsp: d(%d,%d) = %v, want 0", i, i, d.At(i, i))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dij, dji := d.At(i, j), d.At(j, i)
			if dij != dji && !(math.IsInf(dij, 1) && math.IsInf(dji, 1)) {
				return fmt.Errorf("apsp: asymmetric distances d(%d,%d)=%v, d(%d,%d)=%v", i, j, dij, j, i, dji)
			}
		}
	}
	// Direct edges upper-bound distances.
	for _, e := range g.Edges() {
		if d.At(e.U, e.V) > e.W+1e-9 {
			return fmt.Errorf("apsp: d(%d,%d) = %v exceeds edge weight %v", e.U, e.V, d.At(e.U, e.V), e.W)
		}
	}
	// Triangle inequality over all triples.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d.At(i, k)
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if dik+d.At(k, j) < d.At(i, j)-1e-9 {
					return fmt.Errorf("apsp: triangle violation d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						i, j, d.At(i, j), i, k, k, j, dik+d.At(k, j))
				}
			}
		}
	}
	// Reachability structure: finite iff same component.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for c, vs := range g.Components() {
		for _, v := range vs {
			comp[v] = c
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			finite := !math.IsInf(d.At(i, j), 1)
			if finite != (comp[i] == comp[j]) {
				return fmt.Errorf("apsp: d(%d,%d) finiteness %v contradicts component structure", i, j, finite)
			}
		}
	}
	return nil
}

// VerifyPaths certifies that res's successor structure is consistent
// with its distance matrix on g: every reachable pair yields a
// well-formed path (right endpoints, existing edges, acyclic walk)
// whose edge-weight sum equals the stored distance, and every
// unreachable pair yields no path. It is the path-level counterpart of
// VerifyDistances, used to check repaired oracles against the graphs
// they now serve. Cost is O(n² · average path length).
func VerifyPaths(g *graph.Graph, res *PathResult) error {
	n := g.N()
	if res == nil || res.N() != n || res.Dist == nil || res.Dist.Rows != n || res.Dist.Cols != n {
		return fmt.Errorf("apsp: VerifyPaths: result does not cover %d vertices", n)
	}
	if err := res.next.walkAll(); err != nil {
		return fmt.Errorf("apsp: VerifyPaths: %w", err)
	}
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			duv := res.Dist.At(u, v)
			if res.next.at(v, u) == -1 {
				if !math.IsInf(duv, 1) {
					return fmt.Errorf("apsp: VerifyPaths: d(%d,%d)=%g but no successor", u, v, duv)
				}
				continue
			}
			if math.IsInf(duv, 1) {
				return fmt.Errorf("apsp: VerifyPaths: successor stored for unreachable pair (%d,%d)", u, v)
			}
			// Walk the successor chain without Path's panic-on-cycle.
			sum, cur, hops := 0.0, u, 0
			for cur != v {
				nxt := res.next.at(v, cur)
				if nxt < 0 {
					return fmt.Errorf("apsp: VerifyPaths: successor chain (%d,%d) breaks at %d", u, v, cur)
				}
				w, ok := g.HasEdge(cur, nxt)
				if !ok {
					return fmt.Errorf("apsp: VerifyPaths: successor step %d→%d of pair (%d,%d) is not an edge", cur, nxt, u, v)
				}
				sum += w
				cur = nxt
				if hops++; hops > n {
					return fmt.Errorf("apsp: VerifyPaths: successor chain (%d,%d) is cyclic", u, v)
				}
			}
			if !tightSum(sum, duv) {
				return fmt.Errorf("apsp: VerifyPaths: path weight %g for pair (%d,%d) does not match d=%g", sum, u, v, duv)
			}
		}
	}
	return nil
}
