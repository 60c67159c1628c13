package apsp

import (
	"fmt"
	"math"
	"math/bits"
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

// Successors is the successor table of a solved graph, stored as
// neighbour slots: the graph is sparse, so the hop after u towards v is
// one of deg(u) neighbours, not one of n vertices. It is target-major:
// entry (v,u) is the index in u's adjacency list of the vertex after u
// on a shortest u→v path, so row v is the shortest-path tree into v and
// a path walk stays inside one row. Column u is stored in exactly the
// bits deg(u) slots need — bits.Len(deg(u)−1): none for a leaf, 1 on a
// cycle, 2 on a grid, 10 for the hub of a 576-star and still none for
// its leaves — at a bit offset shared by every row (slotAdjacency.cols).
// There is no code for "no successor": a pair has none exactly when
// u = v or the two lie in different components, which the adjacency's
// component labels answer, and every builder refuses a row on which the
// distances say otherwise (successorRow, FloydWarshallPaths); what such
// an entry holds is never read. Every row starts on a word boundary,
// because rebuild's workers write rows concurrently and must never share
// a word. Immutable once built.
type Successors struct {
	n        int
	adj      *slotAdjacency // structure only: shared by every clone
	rowWords int
	words    []uint64
}

// slotAdjacency is the edge structure of a graph as compact CSR, in
// g.Adj order: what turns a slot back into a vertex (to), a scanned
// half-edge into the slot that undoes it (rev), a column into its bits
// (cols) and a pair into "is there a path at all" (comp). It carries no
// weights, so a reweight (SetEdge never changes structure) keeps sharing
// it.
type slotAdjacency struct {
	cols    []slotCol // n+1: column u spans cols[u] up to cols[u+1]
	to      []int32
	rev     []int32 // rev[cols[u].off+s] is u's slot in the list of to[cols[u].off+s]
	comp    []int32 // component label of every vertex
	maxBits int     // the widest column
}

// slotCol is where vertex u starts in both index spaces a hop crosses —
// its neighbours in to/rev, its column in a packed row — side by side so
// the walk's two lookups per vertex share a cache line.
type slotCol struct {
	off int32 // neighbours of u are to[off:cols[u+1].off]
	bit int32 // entry u of a row is bits [bit, cols[u+1].bit) of it
}

// slotWidth is the number of bits that tell deg slots apart.
func slotWidth(deg int) int {
	if deg < 2 {
		return 0
	}
	return bits.Len(uint(deg - 1))
}

// newSlotAdjacency lays out g's structure. Finding each reverse slot
// scans the neighbour's list: Σ deg² ≤ n·2m in total, never more than
// the one extraction pass the table is built for.
func newSlotAdjacency(g *graph.Graph) *slotAdjacency {
	n := g.N()
	a := &slotAdjacency{
		cols: make([]slotCol, n+1), to: make([]int32, 2*g.M()), rev: make([]int32, 2*g.M()), comp: make([]int32, n),
	}
	for u := 0; u < n; u++ {
		w := slotWidth(g.Degree(u))
		a.cols[u+1] = slotCol{off: a.cols[u].off + int32(g.Degree(u)), bit: a.cols[u].bit + int32(w)}
		a.maxBits = max(a.maxBits, w)
		for s, e := range g.Adj(u) {
			i := int(a.cols[u].off) + s
			a.to[i] = int32(e.To)
			a.rev[i] = int32(slices.IndexFunc(g.Adj(e.To), func(b graph.Edge) bool { return b.To == u }))
		}
	}
	for c, vs := range g.Components() {
		for _, v := range vs {
			a.comp[v] = int32(c)
		}
	}
	return a
}

// slotEdge is one half-edge as the extraction walk wants it: the
// neighbour, the slot the walk stores when it crosses the edge backwards,
// and the weight, side by side in adjacency order.
type slotEdge struct {
	to, rev int32
	w       float64
}

// weigh lays the half-edges of g — the structure a was built from, under
// whatever weights g carries now — out flat for one rebuild.
func (a *slotAdjacency) weigh(g *graph.Graph) []slotEdge {
	edges := make([]slotEdge, len(a.to))
	for u := 0; u < g.N(); u++ {
		for s, e := range g.Adj(u) {
			i := int(a.cols[u].off) + s
			edges[i] = slotEdge{to: a.to[i], rev: a.rev[i], w: e.W}
		}
	}
	return edges
}

// newSuccessors allocates the n×n table of g, each row padded to whole
// words.
func newSuccessors(g *graph.Graph) *Successors {
	adj := newSlotAdjacency(g)
	n := g.N()
	rowWords := (int(adj.cols[n].bit) + 63) / 64
	return &Successors{n: n, adj: adj, rowWords: rowWords, words: make([]uint64, n*rowWords)}
}

// Bits is the width of the widest column: what the highest-degree vertex
// costs every row.
func (s *Successors) Bits() int { return s.adj.maxBits }

// Bytes is the retained size of the table: the packed rows plus the
// adjacency that decodes them.
func (s *Successors) Bytes() int64 {
	return int64(len(s.words))*8 + int64(2*len(s.adj.cols)+len(s.adj.to)+len(s.adj.rev)+len(s.adj.comp))*4
}

func (s *Successors) clone() *Successors {
	c := *s
	c.words = slices.Clone(s.words)
	return &c
}

func (s *Successors) row(v int) []uint64 { return s.words[v*s.rowWords : (v+1)*s.rowWords] }

// slot reads entry u of a row: the bits between two neighbouring column
// offsets, which may straddle a word. A column of no bits reads as slot
// 0, the only neighbour a leaf has.
func (s *Successors) slot(row []uint64, u int) uint32 {
	lo := uint(s.adj.cols[u].bit)
	width := uint(s.adj.cols[u+1].bit) - lo
	if width == 0 {
		return 0
	}
	i, shift := lo>>6, lo&63
	x := row[i] >> shift
	if shift+width > 64 {
		x |= row[i+1] << (64 - shift)
	}
	return uint32(x) & (1<<width - 1)
}

// packRow overwrites row v with slots (length n), a word at a time. An
// entry without a successor (-1) is stored as the low bits of -1 that fit
// its column; nothing reads it back.
func (s *Successors) packRow(v int, slots []int32) {
	row, cols := s.row(v), s.adj.cols
	var word uint64
	i, fill := 0, uint(0) // fill: bits of word already taken
	for u, x := range slots {
		width := uint(cols[u+1].bit - cols[u].bit)
		val := uint64(uint32(x)) & (1<<width - 1)
		word |= val << fill
		if fill += width; fill >= 64 {
			row[i] = word
			i, fill = i+1, fill-64
			word = val >> (width - fill) // the part that did not fit
		}
	}
	if fill > 0 {
		row[i] = word
	}
}

// packRows packs a whole unpacked table, n×n target-major.
func (s *Successors) packRows(slots []int32) {
	for v := 0; v < s.n; v++ {
		s.packRow(v, slots[v*s.n:(v+1)*s.n])
	}
}

// at returns the vertex after u on a shortest u→v path, -1 if none.
func (s *Successors) at(v, u int) int {
	if u == v {
		return v
	}
	if s.adj.comp[u] != s.adj.comp[v] {
		return -1
	}
	return int(s.adj.to[int(s.adj.cols[u].off)+int(s.slot(s.row(v), u))])
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
// not (the same reading RepairRows makes). Targets are independent —
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
	if g == nil {
		return nil, fmt.Errorf("apsp: SuccessorsFromDist: nil graph")
	}
	if err := CheckNonNegative(g); err != nil {
		return nil, err
	}
	n := g.N()
	if d == nil || d.Rows != n || d.Cols != n {
		return nil, fmt.Errorf("apsp: SuccessorsFromDist: distance matrix is not %d×%d", n, n)
	}
	next := newSuccessors(g)
	if err := next.rebuild(g, matrixRows(d), nil); err != nil {
		return nil, err
	}
	return &PathResult{Dist: d, next: next}, nil
}

// RowFunc yields row v of a distance matrix as float64s. It may return
// a slice it already holds or fill and return buf (length n, owned by
// the calling worker until its next call); the row is only read. Pool
// workers call it concurrently for distinct rows: successor extraction
// reads each target's row, and RepairRows reads each row of the
// previous result once, straight into the matrix it edits.
type RowFunc func(v int, buf []float64) []float64

func matrixRows(d *semiring.Matrix) RowFunc {
	n := d.Cols
	return func(v int, _ []float64) []float64 { return d.V[v*n : (v+1)*n] }
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

// rebuild re-extracts the rows named by targets (every row when nil)
// from g — which must have the structure the table was allocated for —
// on semiring.DefaultPool, in contiguous chunks with one queue, one
// distance buffer and one unpacked slot row each, all walking one
// flat copy of the weighted half-edges (weigh). Distinct targets
// pack into disjoint words, so the table is the same for any worker
// count; so is the error, which is always the lowest-numbered failing
// target's.
func (s *Successors) rebuild(g *graph.Graph, row RowFunc, targets []int) error {
	n := s.n
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
	edges := s.adj.weigh(g)
	integral := integralWeights(edges)
	semiring.DefaultPool.ForEach(chunks, func(c int) {
		queue := make([]int32, n+1)
		buf := make([]float64, n)
		slots := make([]int32, n)
		for i := c * count / chunks; i < (c+1)*count/chunks; i++ {
			v := i
			if targets != nil {
				v = targets[i]
			}
			if errs[c] = successorRow(edges, s.adj, row(v, buf), v, slots, queue, integral); errs[c] != nil {
				return
			}
			s.packRow(v, slots)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// successorRow extracts row v of the successor table — the shortest-
// path tree into v — from row v of the distance matrix: the backward
// breadth-first walk of the tight-edge graph rooted at v described on
// SuccessorsFromDist. Every entry of slots is overwritten, unpacked (-1
// for none, v's own included); queue is scratch of length n+1, which the
// walk fills by index. integral says every edge weight is an integer
// (integralWeights). The incremental repair path calls this for exactly
// the targets whose distances or tight edges changed, leaving the rest
// of the table as the original solve built it.
//
// Whether the walk takes an edge — target unreached, edge tight — is
// close to a coin toss on a grid or a random graph, so as a branch it
// is hard to predict. On a row where tightSum is
// plain equality (exactRow, with integral weights) and while more than
// wideFrontier vertices wait in the queue, the walk instead computes
// the decision as a 0/1 flag and applies it without branching: the slot
// is rewritten with itself and the entry past the queue's tail
// overwritten when the edge is not taken. A short queue keeps the
// branch: there the next vertex to scan is the one the last decision
// appended, and the flag's latency would sit on that chain (a cycle's
// walk has two vertices in flight). Both loops visit the same edges in
// the same order and take the same ones, so the table does not depend
// on which ran.
//
// The table answers "no successor" from the component labels alone, so a
// row is refused unless its distances agree with them both ways: every
// finite distance reached by the walk, and no +Inf inside v's component
// (an edge of weight +Inf). A walk that reaches all n vertices on a row
// with no +Inf agrees by construction; any other row is checked vertex
// by vertex and the lowest failing vertex reported.
func successorRow(edges []slotEdge, adj *slotAdjacency, distV []float64, v int, slots []int32, queue []int32, integral bool) error {
	for u := range slots {
		slots[u] = -1
	}
	slots[v] = 0 // visited; cleared below
	queue[0] = int32(v)
	exact, finite := exactRow(distV)
	exact = exact && integral
	tail := 1
	for head := 0; head < tail; head++ {
		w := queue[head]
		dwv := distV[w]
		out := edges[adj.cols[w].off:adj.cols[w+1].off]
		if exact && tail-head > wideFrontier {
			for _, e := range out {
				u, su := e.to, slots[e.to]
				take := flag(e.w+dwv == distV[u]) & (uint32(su) >> 31) // tight and unreached (-1)
				slots[u] = su + int32(take)*(e.rev-su)
				queue[tail] = u
				tail += int(take)
			}
			continue
		}
		for _, e := range out {
			if slots[e.to] != -1 {
				continue
			}
			if tightSum(e.w+dwv, distV[e.to]) {
				slots[e.to] = e.rev
				queue[tail] = e.to
				tail++
			}
		}
	}
	if tail < len(slots) || !finite {
		for u, su := range slots {
			if inf := math.IsInf(distV[u], 1); su == -1 && !inf {
				return fmt.Errorf("apsp: SuccessorsFromDist: d(%d,%d)=%g is not explained by any edge of the graph (inconsistent distances)", u, v, distV[u])
			} else if inf && adj.comp[u] == adj.comp[v] {
				return fmt.Errorf("apsp: SuccessorsFromDist: d(%d,%d)=+Inf inside one component of the graph (inconsistent distances)", u, v)
			}
		}
	}
	slots[v] = -1
	return nil
}

// wideFrontier is the queue length above which successorRow's exact
// walk stops branching on each edge. BenchmarkSuccessorsFromDist reads
// the same at 4 to 16 on every shape; at 2 the cycle slows by up to 2×.
const wideFrontier = 8

// flag is b as 0 or 1.
func flag(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// exactRow scans a distance row once. finite reports that it holds no
// +Inf; exact, that every entry is a non-negative integer below 1e9,
// +Inf or NaN. On an exact row, with integral weights, tightSum(sum, d)
// is sum == d: both sides are then exact integers, infinities or NaN,
// and two integers that differ do so by at least 1, more than
// tightSum's tolerance of 1e-9·max(1, |d|) below 1e9.
func exactRow(d []float64) (exact, finite bool) {
	exact, finite = true, true
	for _, x := range d {
		if x >= 0 && x < 1e9 && x == float64(int64(x)) {
			continue
		}
		if x > math.MaxFloat64 {
			finite = false
		} else if x == x { // not NaN
			exact = false
		}
	}
	return exact, finite
}

// integralWeights reports whether every weight of edges is an integer,
// ±Inf or NaN — every float64 of magnitude 2^53 or more is an integer.
func integralWeights(edges []slotEdge) bool {
	for _, e := range edges {
		if math.Abs(e.w) < 1<<53 && e.w != float64(int64(e.w)) {
			return false
		}
	}
	return true
}

// N returns the number of vertices the result covers; valid query
// endpoints are [0, N).
func (p *PathResult) N() int { return p.next.n }

// Successors returns the result's successor table (shared, immutable).
func (p *PathResult) Successors() *Successors { return p.next }

// MemoryBytes is the retained size of the result: the float64 distance
// matrix plus Successors.Bytes() — the slot table and the adjacency that
// decodes it.
func (p *PathResult) MemoryBytes() int64 {
	return int64(len(p.Dist.V))*8 + p.next.Bytes()
}

// Path returns the vertices of a shortest u→v path, inclusive of both
// endpoints, or nil if v is unreachable from u. For u == v it returns
// [u].
func (p *PathResult) Path(u, v int) []int { return p.next.Path(u, v) }

// Path walks row v of the table in one pass — column, slot, then the
// neighbour it names — appending as it goes; see PathResult.Path.
func (s *Successors) Path(u, v int) []int {
	n := s.n
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("apsp: path query (%d,%d) outside [0,%d)", u, v, n))
	}
	if u == v {
		return []int{u}
	}
	if s.adj.comp[u] != s.adj.comp[v] {
		return nil
	}
	row, cols, to := s.row(v), s.adj.cols, s.adj.to
	path := make([]int, 0, 32) // a typical path; longer ones grow
	for cur := u; cur != v; {
		if path = append(path, cur); len(path) >= n {
			panic("apsp: successor structure is cyclic (corrupted)")
		}
		// A slot past cur's degree lands at or beyond cols[cur+1].off.
		i := int(cols[cur].off) + int(s.slot(row, cur))
		if i >= int(cols[cur+1].off) {
			panic("apsp: successor structure names a missing neighbour (corrupted)")
		}
		cur = int(to[i])
	}
	return append(path, v)
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
