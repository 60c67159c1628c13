package apsp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
// component labels answer, and the walk refuses a row on which the
// distances say otherwise (successorRow); what such an entry holds is
// never read. Every row starts on a word boundary, because rebuild's
// workers write rows concurrently and must never share a word.
//
// Every row is written once. A table a solve extracts is complete when
// built. A repaired table leaves the rows an edit may change pending
// (Successors.repaired) and walks each on the first path query that
// reads it (Walk, Path), from the edited graph and the repaired
// distances it keeps for that; a row once walked never changes, so a
// reader needs no lock for it.
type Successors struct {
	n        int
	adj      *slotAdjacency // structure only: shared by every repaired copy
	rowWords int
	words    []uint64

	// pending has a bit for each row not yet walked; nil on a table a
	// solve extracts. A bit is cleared only under mu, after its row is
	// written; graph and dist are what the walk reads.
	pending []atomic.Uint64
	mu      sync.Mutex // held by a walk and by a repair copying the table
	graph   *graph.Graph
	dist    RowFunc
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
// adjacency that decodes them. A repaired table's pending bits (n/8
// bytes) are left out, so a table's size does not depend on whether it
// was extracted or repaired.
func (s *Successors) Bytes() int64 {
	return int64(len(s.words))*8 + int64(2*len(s.adj.cols)+len(s.adj.to)+len(s.adj.rev)+len(s.adj.comp))*4
}

// isPending reports whether row v still waits for its walk. A false
// answer is final, and the row's words are then safe to read.
func (s *Successors) isPending(v int) bool {
	return s.pending != nil && s.pending[v>>6].Load()&(1<<(v&63)) != 0
}

// Pending counts the rows still waiting for their walk: 0 on a table a
// solve extracts, and on a repaired one once every row has been read.
func (s *Successors) Pending() int {
	c := 0
	for i := range s.pending {
		c += bits.OnesCount64(s.pending[i].Load())
	}
	return c
}

// Walk walks every pending row a path query of pairs reads — row v of
// each (u, v), which must lie in [0, n) — so that Path finds them
// ready: all of them in one rebuild on the pool. A row the walk refuses
// (inconsistent distances) stays pending and its error is returned, the
// lowest-numbered failing row's. Concurrent calls walk a row once: the
// walk holds the table's lock and looks at each bit again under it. On
// a table with no pending row it costs one bit test per pair.
func (s *Successors) Walk(pairs [][2]int) error {
	if s.pending == nil {
		return nil
	}
	var rows []int
	for _, p := range pairs {
		if s.isPending(p[1]) {
			rows = append(rows, p[1])
		}
	}
	return s.walk(rows)
}

// walk walks the rows named (duplicates allowed) that are still pending.
func (s *Successors) walk(rows []int) error {
	if len(rows) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slices.Sort(rows)
	rows = slices.DeleteFunc(slices.Compact(rows), func(v int) bool { return !s.isPending(v) })
	if len(rows) == 0 {
		return nil
	}
	if err := s.rebuild(s.graph, s.dist, rows); err != nil {
		return err
	}
	for _, v := range rows { // every clear holds mu, so Load then Store is safe
		w := &s.pending[v>>6]
		w.Store(w.Load() &^ (1 << (v & 63)))
	}
	return nil
}

// walkAll walks every pending row.
func (s *Successors) walkAll() error {
	var rows []int
	for v := 0; v < s.n; v++ {
		if s.isPending(v) {
			rows = append(rows, v)
		}
	}
	return s.walk(rows)
}

// ReadRowsFrom points the walks of the table's pending rows at row,
// which must yield the distances the table was repaired to: a caller
// that keeps them in another form (the oracle's narrowed store) can then
// release the repair's matrix. Call it before the table is shared.
func (s *Successors) ReadRowsFrom(row RowFunc) {
	s.mu.Lock()
	s.dist = row
	s.mu.Unlock()
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

// SuccessorsFromDist reconstructs the successor structure from a
// finished distance matrix, so shortest paths can be served from the
// output of *any* solver (blocked, supernodal, or the distributed
// 2D-SPARSE-APSP). It is the one rule every served table is built by.
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

// repaired returns the table a fresh extraction of d builds, with the
// rows an edit can change left pending: s was built from the distances
// of the graph ed edits, d is the repaired matrix of ed.Graph, and wrote
// marks every target whose row or column the repair wrote. It copies
// every row of s and says how many rows it left pending, which are
// walked from ed.Graph and d when a path query first reads them. Row v's
// walk reads row v of d and the weights, so it must be walked again when
//
//   - row v was written (a superset is harmless: a walk over unchanged
//     distances reproduces its row);
//   - an edited edge {a,b} was a tree edge of old row v, which the new
//     walk may drop;
//   - an edited edge is tight by tightSum at its new weight in row v, in
//     either direction, which the new walk may take.
//
// Nothing else can move it. The walk takes an edge w→u when it scans w,
// u is unreached and the edge is tight. Run the old and the new walk side
// by side: they agree until an edited edge is scanned, and an edited edge
// that the old walk did not take (not a tree edge) and that is not tight
// now is taken by neither. Every other decision reads unchanged weights
// and distances. v's walk never scans an edge outside v's component. The
// exact walk's == is tightSum on the rows it runs on, so the rule covers
// both loops.
//
// A row still pending in s stays pending: its old words were never
// written.
func (s *Successors) repaired(ed *Edited, d *semiring.Matrix, wrote []bool) (*Successors, int) {
	n := s.n
	next := &Successors{n: n, adj: s.adj, rowWords: s.rowWords,
		pending: make([]atomic.Uint64, (n+63)/64), graph: ed.Graph, dist: matrixRows(d)}
	marked := 0
	for v := 0; v < n; v++ {
		row := d.V[v*n : (v+1)*n]
		walk := wrote[v] || s.isPending(v)
		for i := 0; i < len(ed.deltas) && !walk; i++ {
			e := ed.deltas[i]
			walk = s.adj.comp[e.u] == s.adj.comp[v] && (s.at(v, e.u) == e.v || s.at(v, e.v) == e.u ||
				tightSum(e.new+row[e.v], row[e.u]) || tightSum(e.new+row[e.u], row[e.v]))
		}
		if walk { // next is not shared yet
			w := &next.pending[v>>6]
			w.Store(w.Load() | 1<<(v&63))
			marked++
		}
	}
	// A walk of s may be writing its pending rows; those are pending here
	// too, and the lock keeps the copy from racing with them.
	s.mu.Lock()
	next.words = slices.Clone(s.words)
	s.mu.Unlock()
	return next, marked
}

// successorRow extracts row v of the successor table — the shortest-
// path tree into v — from row v of the distance matrix: the backward
// breadth-first walk of the tight-edge graph rooted at v described on
// SuccessorsFromDist. Every entry of slots is overwritten, unpacked (-1
// for none, v's own included); queue is scratch of length n+1, which the
// walk fills by index. integral says every edge weight is an integer
// (integralWeights). A repaired table calls this only for the targets
// Successors.repaired finds an edit can change, on their first path
// query, and keeps the other rows from the previous table.
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

// Successors returns the result's successor table (shared; its rows are
// written once).
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
// neighbour it names — appending as it goes; see PathResult.Path. A
// pending row is walked first (Walk), and a row the walk refuses panics
// like a corrupted one: call Walk to have that as an error.
func (s *Successors) Path(u, v int) []int {
	n := s.n
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("apsp: path query (%d,%d) outside [0,%d)", u, v, n))
	}
	if s.isPending(v) {
		if err := s.walk([]int{v}); err != nil {
			panic(err.Error())
		}
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
