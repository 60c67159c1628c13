package apsp

import (
	"fmt"
	"sync"

	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/partition"
	"sparseapsp/internal/semiring"
)

// Layout is the supernodal block structure of Section 5.1: a nested
// dissection of the input graph into N = 2^h − 1 supernodes, the
// matching elimination tree, and the permuted graph whose adjacency
// matrix the block distance matrix is initialized from. Block (i, j)
// is the |V_i| × |V_j| submatrix of the permuted distance matrix.
type Layout struct {
	G    *graph.Graph      // original graph
	PG   *graph.Graph      // permuted (reordered) graph
	ND   *partition.Result // the dissection: supernodes, sizes, permutation
	Tree *etree.Tree       // eTree over supernode labels 1..N
}

// NewLayout runs nested dissection with h levels on g.
func NewLayout(g *graph.Graph, h int, seed int64) (*Layout, error) {
	nd, err := partition.NestedDissection(g, h, seed)
	if err != nil {
		return nil, err
	}
	return NewLayoutFromOrdering(g, nd), nil
}

// NewLayoutFromOrdering wraps an existing nested-dissection result —
// for example one computed by partition.DistributedND — as a layout
// usable by the solvers.
func NewLayoutFromOrdering(g *graph.Graph, nd *partition.Result) *Layout {
	return &Layout{
		G:    g,
		PG:   g.Permute(nd.Perm),
		ND:   nd,
		Tree: etree.New(nd.H),
	}
}

// blockBacking recycles the n²-word backing arrays of Blocks across
// solves. A warm serving run executes one Blocks per query; without the
// pool the allocator's zeroing and the GC's scanning of a multi-megabyte
// slice are a fixed tax on every solve.
var blockBacking sync.Pool

func getBacking(n int) []float64 {
	if v := blockBacking.Get(); v != nil {
		if s := *(v.(*[]float64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// Blocks builds the initial distance-matrix blocks: blocks[i][j]
// (1-based supernode labels) holds edge weights between supernodes i
// and j, Inf elsewhere, 0 on the global diagonal. The total storage is
// exactly n² words spread over N² blocks.
func (ly *Layout) Blocks() [][]*semiring.Matrix {
	blocks, _ := ly.BlocksPooled()
	return blocks
}

// BlocksPooled is Blocks plus a release callback that hands the flat
// backing array back to an internal pool. Call release only once no
// block is referenced anymore (the executors release right after
// AssembleOriginal); callers that let blocks escape use plain Blocks.
func (ly *Layout) BlocksPooled() (blocks [][]*semiring.Matrix, release func()) {
	nSuper := ly.ND.N
	// All N² block bodies live in one flat allocation (their total is
	// exactly n² words) and the matrix headers in another: at large p
	// the per-block allocations and their GC scanning otherwise rival
	// the numeric work of a warm solve.
	n := len(ly.ND.Perm)
	flat := getBacking(n * n)
	for i := range flat {
		flat[i] = semiring.Inf
	}
	mats := make([]semiring.Matrix, nSuper*nSuper)
	blocks = make([][]*semiring.Matrix, nSuper+1)
	off, k := 0, 0
	for i := 1; i <= nSuper; i++ {
		blocks[i] = make([]*semiring.Matrix, nSuper+1)
		for j := 1; j <= nSuper; j++ {
			sz := ly.ND.Sizes[i] * ly.ND.Sizes[j]
			mats[k] = semiring.Matrix{Rows: ly.ND.Sizes[i], Cols: ly.ND.Sizes[j], V: flat[off : off+sz : off+sz]}
			blocks[i][j] = &mats[k]
			k++
			off += sz
		}
		diag := blocks[i][i]
		for d := 0; d < diag.Rows; d++ {
			diag.Set(d, d, 0)
		}
	}
	sup, loc := ly.ND.VertexBlocks()
	for v := 0; v < ly.PG.N(); v++ {
		sv, lv := sup[v], loc[v]
		for _, e := range ly.PG.Adj(v) {
			b := blocks[sv][sup[e.To]]
			if i := int(lv)*b.Cols + int(loc[e.To]); e.W < b.V[i] {
				b.V[i] = e.W
			}
		}
	}
	return blocks, func() { blockBacking.Put(&flat) }
}

// AssembleOriginal reassembles a full distance matrix in the original
// vertex order from the block matrix. It reads every off-diagonal pair
// from its owned orientation (ownsBlock) and writes the mirror as its
// transpose: the pruned wire computes the R3 sink blocks in that
// orientation alone (plan.go), and every other final block equals its
// mirror's transpose bit for bit, under both wires and in SuperFW.
func (ly *Layout) AssembleOriginal(blocks [][]*semiring.Matrix) *semiring.Matrix {
	return ly.assemble(blocks, semiring.NewPool(1))
}

// assemble is AssembleOriginal with the output rows split into bands on
// pool's goroutines. Each row is written by one of them, from blocks
// nothing writes any more, so the result is the same at any pool size.
func (ly *Layout) assemble(blocks [][]*semiring.Matrix, pool *semiring.Pool) *semiring.Matrix {
	n := ly.G.N()
	out := semiring.NewMatrix(n, n)
	// A row of the result is a sequence of runs: consecutive columns at
	// consecutive offsets of one supernode. A run is one copy out of row
	// lu of an owned block (i, j), or one walk down column lu of the
	// mirror (j, i).
	type run struct{ v, lv, len, j int }
	var runs []run
	sup, loc := ly.ND.VertexBlocks()
	for v := 0; v < n; v++ {
		pv := ly.ND.Perm[v]
		j, lv := int(sup[pv]), int(loc[pv])
		if k := len(runs) - 1; k >= 0 && runs[k].j == j && runs[k].lv+runs[k].len == lv {
			runs[k].len++
			continue
		}
		runs = append(runs, run{v: v, lv: lv, len: 1, j: j})
	}
	// Rows go out in supernode order — row t of the permuted matrix is
	// offset loc[t] of supernode sup[t] — so consecutive rows walk
	// neighbouring columns of a mirror.
	pool.ForRanges(n, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i, lu := int(sup[t]), int(loc[t])
			u := ly.ND.InvPerm[t]
			orow := out.V[u*n : (u+1)*n]
			for _, r := range runs {
				dst := orow[r.v : r.v+r.len]
				if ownsBlock(i, r.j) {
					b := blocks[i][r.j]
					copy(dst, b.V[lu*b.Cols+r.lv:])
					continue
				}
				b := blocks[r.j][i]
				for x := range dst {
					dst[x] = b.V[(r.lv+x)*b.Cols+lu]
				}
			}
		}
	})
	return out
}

// ownsBlock reports whether block (i, j) is the owned orientation of its
// pair, the one AssembleOriginal reads: i < j exactly when i + j is odd.
// The rule is a balanced tournament on the labels, fixed across levels,
// so each supernode owns about half of its pairs and the R3 panels that
// only owned sink blocks fold (sinkMirror) lose about half of every row
// and column. A diagonal block owns itself.
func ownsBlock(i, j int) bool { return (i < j) == ((i+j)%2 == 1) }

// HeightForP returns the eTree height for a machine of p ranks under
// the block layout (√p = 2^h − 1), or an error for invalid p.
func HeightForP(p int) (int, error) {
	s := 0
	for (s+1)*(s+1) <= p {
		s++
	}
	if s*s != p {
		return 0, fmt.Errorf("apsp: p=%d is not a perfect square", p)
	}
	return etree.HeightForGrid(s)
}

// ValidSparseP reports the processor counts ≤ max usable by the sparse
// algorithm: p = (2^h − 1)².
func ValidSparseP(max int) []int {
	var out []int
	for h := 1; ; h++ {
		s := (1 << h) - 1
		if s*s > max {
			return out
		}
		out = append(out, s*s)
	}
}
