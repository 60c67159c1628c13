package apsp

import (
	"fmt"
	"math"
	"slices"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// PathResult is a distance matrix plus the successor structure needed
// to reconstruct actual shortest paths — what a downstream user of an
// APSP library typically wants on top of the distances.
type PathResult struct {
	Dist *semiring.Matrix
	// Report carries the simulated cost report of the solve (or warm
	// re-solve) that produced Dist — including the per-phase
	// words-moved breakdown the serving layer aggregates into /statsz.
	// Zero for purely sequential solvers and for incrementally
	// repaired results, which move no simulated words.
	Report comm.Report
	next   *Successors
}

// succID is an element of a successor table: uint16 when every vertex
// id sits below the 0xFFFF sentinel, int32 (sentinel -1) otherwise.
// Both sentinels are the all-ones pattern, so the generic builders and
// walkers spell "no successor" ^T(0).
type succID interface{ uint16 | int32 }

// Successors is the successor table of a solved graph, built and walked
// at one width: uint16 entries when narrowSuccessors(n), int32 entries
// otherwise — exactly one of the two slices is in use. It is
// target-major: entry v*n+u is the vertex after u on a shortest u→v
// path (all-ones if none), so row v is the shortest-path tree into v
// and a path walk stays inside one row. Immutable once built.
type Successors struct {
	n   int
	u16 []uint16
	i32 []int32 // non-nil selects the wide table
}

// narrowSuccessors reports whether every vertex id of an n-vertex graph
// is below the uint16 sentinel 0xFFFF.
func narrowSuccessors(n int) bool { return n <= math.MaxUint16 }

// newSuccessors allocates an n×n table; narrow is narrowSuccessors(n)
// everywhere outside the tests that force the wide builder onto small
// graphs.
func newSuccessors(n int, narrow bool) *Successors {
	if narrow {
		return &Successors{n: n, u16: make([]uint16, n*n)}
	}
	return &Successors{n: n, i32: make([]int32, n*n)}
}

// Bytes is the retained size of the table.
func (s *Successors) Bytes() int64 { return int64(len(s.u16))*2 + int64(len(s.i32))*4 }

func (s *Successors) clone() *Successors {
	return &Successors{n: s.n, u16: slices.Clone(s.u16), i32: slices.Clone(s.i32)}
}

// at returns the vertex after u on a shortest u→v path, -1 if none.
func (s *Successors) at(v, u int) int {
	if s.i32 != nil {
		return int(s.i32[v*s.n+u])
	}
	if k := s.u16[v*s.n+u]; k != math.MaxUint16 {
		return int(k)
	}
	return -1
}

// rebuild re-extracts the rows named by targets (every row when nil).
func (s *Successors) rebuild(g *graph.Graph, row RowFunc, targets []int) error {
	if s.i32 != nil {
		return successorRows(g, row, s.i32, targets)
	}
	return successorRows(g, row, s.u16, targets)
}

// FloydWarshallPaths runs the classical algorithm while maintaining
// successors, so Path can extract any shortest path in O(path length).
//
// The loop runs on the transposed problem — row j holds the distances
// and hops TOWARDS j — so the table comes out target-major with every
// access contiguous. On an undirected graph that is the same matrix:
// within step k neither row k nor column k changes, so every entry
// (i,j) and its mirror (j,i) take the minimum of the same two floats
// and stay bit-equal.
func FloydWarshallPaths(g *graph.Graph) *PathResult {
	n := g.N()
	d := semiring.FromSlice(n, n, g.AdjacencyMatrix())
	next := newSuccessors(n, narrowSuccessors(n))
	if next.i32 != nil {
		floydWarshallNext(g, d, next.i32)
	} else {
		floydWarshallNext(g, d, next.u16)
	}
	return &PathResult{Dist: d, next: next}
}

func floydWarshallNext[T succID](g *graph.Graph, d *semiring.Matrix, next []T) {
	n := g.N()
	for i := range next {
		next[i] = ^T(0)
	}
	for u := 0; u < n; u++ {
		next[u*n+u] = T(u)
		for _, e := range g.Adj(u) {
			if float64(e.W) <= d.At(e.To, u) {
				next[e.To*n+u] = T(e.To)
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
}

// SuccessorsFromDist reconstructs the successor structure from a
// finished distance matrix, so shortest paths can be served from the
// output of *any* solver (blocked, supernodal, or the distributed
// 2D-SPARSE-APSP), not just the classical FloydWarshallPaths loop.
//
// For each target v it walks the "tight" edges — edges {u, w} with
// d(u,v) = w(u,w) + d(w,v) — backwards from v in breadth-first order,
// so the resulting successor pointers form a tree rooted at v: path
// extraction always terminates, even through zero-weight edges that
// make the tight-edge graph cyclic. Equality is checked with a small
// relative tolerance because different solvers may sum the same path
// in different orders. Cost is O(n·m) time and O(n²) space.
//
// The distances towards v are read from ROW v of d: g is undirected,
// so d(u,v) = d(v,u), and the row is contiguous where the column is
// not (the same reading Plan.Repair makes). Targets are independent —
// target v reads row v of d and writes row v of the table — so they
// are extracted in parallel, and the table does not depend on how many
// workers ran.
//
// The graph must have non-negative weights (in an undirected graph a
// negative edge is a negative cycle, under which shortest paths are
// undefined), and d must be a correct distance matrix for g; an
// inconsistency (a reachable pair whose distance no edge sequence
// explains) is reported as an error rather than producing a broken
// oracle.
func SuccessorsFromDist(g *graph.Graph, d *semiring.Matrix) (*PathResult, error) {
	if err := checkNonNegative(g); err != nil {
		return nil, err
	}
	return SuccessorsNonNegative(g, d)
}

func checkNonNegative(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("apsp: SuccessorsFromDist: nil graph")
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Adj(u) {
			if e.W < 0 {
				return fmt.Errorf("apsp: negative edge {%d,%d} weight %g is a negative cycle in an undirected graph", u, e.To, e.W)
			}
		}
	}
	return nil
}

// SuccessorsNonNegative is SuccessorsFromDist for a caller that has
// already rejected negative edge weights under its own error text (the
// public SolveWithPathsOptions scans before it spends a solve), so the
// edges are not scanned a second time.
func SuccessorsNonNegative(g *graph.Graph, d *semiring.Matrix) (*PathResult, error) {
	n := g.N()
	if d == nil || d.Rows != n || d.Cols != n {
		return nil, fmt.Errorf("apsp: SuccessorsFromDist: distance matrix is not %d×%d", n, n)
	}
	next, err := buildSuccessors(g, matrixRows(d), narrowSuccessors(n))
	if err != nil {
		return nil, err
	}
	return &PathResult{Dist: d, next: next}, nil
}

// RowFunc yields row v of a distance matrix as float64s. It may return
// a slice it already holds or fill and return buf (length n, owned by
// the calling worker until its next call); the row is only read.
type RowFunc func(v int, buf []float64) []float64

func matrixRows(d *semiring.Matrix) RowFunc {
	n := d.Cols
	return func(v int, _ []float64) []float64 { return d.V[v*n : (v+1)*n] }
}

// SuccessorsFromRows is SuccessorsFromDist for distances that are not
// held as a float64 matrix: the oracle's typed store widens one row at
// a time into the extracting worker's scratch. The table is the one
// SuccessorsFromDist builds from the same values.
func SuccessorsFromRows(g *graph.Graph, row RowFunc) (*Successors, error) {
	if err := checkNonNegative(g); err != nil {
		return nil, err
	}
	return buildSuccessors(g, row, narrowSuccessors(g.N()))
}

func buildSuccessors(g *graph.Graph, row RowFunc, narrow bool) (*Successors, error) {
	next := newSuccessors(g.N(), narrow)
	if err := next.rebuild(g, row, nil); err != nil {
		return nil, err
	}
	return next, nil
}

// tightSum reports whether sum explains dist: exact equality, or — for
// finite values — equality within a small relative tolerance, because
// different solvers may sum the same path in different orders.
func tightSum(sum, dist float64) bool {
	if sum == dist {
		return true
	}
	tol := 1e-9
	if a := math.Abs(dist); a > 1 {
		tol *= a
	}
	// An infinite sum fails the comparison by itself (the difference is
	// Inf against a finite tol); an infinite dist would make both Inf.
	return math.Abs(sum-dist) <= tol && dist <= math.MaxFloat64
}

// successorRows rebuilds the rows of the successor table named by
// targets (every row when targets is nil) on semiring.DefaultPool, in
// contiguous chunks with one scratch queue and one row buffer each.
// Distinct targets touch disjoint rows, so the table is the same for any
// worker count; so is the error, which is always the lowest-numbered
// failing target's.
func successorRows[T succID](g *graph.Graph, row RowFunc, next []T, targets []int) error {
	n := g.N()
	count := n
	if targets != nil {
		count = len(targets)
	}
	// Several chunks per worker, handed out dynamically: components and
	// degrees make targets uneven.
	chunks := 8 * semiring.DefaultPool.Size()
	if chunks > count {
		chunks = count
	}
	errs := make([]error, chunks)
	semiring.DefaultPool.ForEach(chunks, func(c int) {
		queue := make([]int32, 0, n)
		buf := make([]float64, n)
		for i := c * count / chunks; i < (c+1)*count/chunks; i++ {
			v := i
			if targets != nil {
				v = targets[i]
			}
			if errs[c] = successorRow(g, row(v, buf), v, next[v*n:(v+1)*n], queue); errs[c] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// successorRow rebuilds row v of the successor table — the shortest-
// path tree into v — from row v of the distance matrix: the backward
// breadth-first walk of the tight-edge graph rooted at v described on
// SuccessorsFromDist. Every entry of nextV is overwritten, at the
// table's final width; queue is scratch. The incremental repair path
// calls this for exactly the targets whose distances or tight edges
// changed, leaving the rest of the table as the original solve built it.
func successorRow[T succID](g *graph.Graph, distV []float64, v int, nextV []T, queue []int32) error {
	none := ^T(0)
	for u := range nextV {
		nextV[u] = none
	}
	nextV[v] = T(v)
	queue = append(queue[:0], int32(v))
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		dwv := distV[w]
		for _, e := range g.Adj(int(w)) {
			u := e.To
			if nextV[u] != none {
				continue
			}
			if tightSum(e.W+dwv, distV[u]) {
				nextV[u] = T(w)
				queue = append(queue, int32(u))
			}
		}
	}
	for u, nu := range nextV {
		if nu == none && !math.IsInf(distV[u], 1) {
			return fmt.Errorf("apsp: SuccessorsFromDist: d(%d,%d)=%g is not explained by any edge of the graph (inconsistent distances)", u, v, distV[u])
		}
	}
	return nil
}

// N returns the number of vertices the result covers; valid query
// endpoints are [0, N).
func (p *PathResult) N() int { return p.next.n }

// Successors returns the result's successor table (shared, immutable).
func (p *PathResult) Successors() *Successors { return p.next }

// MemoryBytes is the retained size of the result: the float64 distance
// matrix plus the successor table at its built width.
func (p *PathResult) MemoryBytes() int64 {
	return int64(len(p.Dist.V))*8 + p.next.Bytes()
}

// Path returns the vertices of a shortest u→v path, inclusive of both
// endpoints, or nil if v is unreachable from u. For u == v it returns
// [u].
func (p *PathResult) Path(u, v int) []int { return p.next.Path(u, v) }

// Path walks row v of the table in place; see PathResult.Path.
func (s *Successors) Path(u, v int) []int {
	n := s.n
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("apsp: path query (%d,%d) outside [0,%d)", u, v, n))
	}
	if u == v {
		return []int{u}
	}
	if s.i32 != nil {
		return walk(s.i32[v*n:(v+1)*n], u, v)
	}
	return walk(s.u16[v*n:(v+1)*n], u, v)
}

func walk[T succID](nextV []T, u, v int) []int {
	if nextV[u] == ^T(0) {
		return nil
	}
	hops := 0
	for cur := u; cur != v; cur = int(nextV[cur]) {
		if hops++; hops >= len(nextV) {
			panic("apsp: successor structure is cyclic (corrupted)")
		}
	}
	path := make([]int, hops+1)
	cur := u
	for i := range path {
		path[i] = cur
		cur = int(nextV[cur])
	}
	return path
}

// PathWeight sums the edge weights of path in g, returning Inf for an
// invalid (edge-missing) or empty path. Useful for verifying returned
// paths against the distance matrix.
func PathWeight(g *graph.Graph, path []int) float64 {
	if len(path) == 0 {
		return semiring.Inf
	}
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.HasEdge(path[i], path[i+1])
		if !ok {
			return semiring.Inf
		}
		total += w
	}
	return total
}
