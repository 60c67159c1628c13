package apsp

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// Dist2DFW runs the dense blocked Floyd–Warshall on a √p × √p grid in
// block layout: the matrix is split into √p × √p blocks, one per
// processor, and each of the √p pivot steps does a diagonal update,
// panel broadcasts along the pivot row and column, then row/column
// panel broadcasts and the min-plus outer product everywhere — the
// blocked descendant of Jenq–Sahni (ICPP'87). Bandwidth O(n²/√p·log p)
// and latency O(√p·log p) with binomial broadcasts.
//
// It accepts any perfect-square p and serves as the second dense
// baseline next to DCAPSP.
func Dist2DFW(g *graph.Graph, p int) (*DistResult, error) {
	if p < 1 {
		return nil, fmt.Errorf("apsp: p=%d < 1", p)
	}
	grid, err := comm.NewSquareGrid(p)
	if err != nil {
		return nil, err
	}
	s := grid.Rows
	n := g.N()
	blocks, starts := denseBlocks(g, s)
	machine := comm.NewMachine(p)
	err = machine.Run(func(ctx *comm.Ctx) {
		dist2dRank(ctx, grid, blocks, starts)
	})
	if err != nil {
		return nil, fmt.Errorf("apsp: 2D FW solver failed: %w", err)
	}
	return &DistResult{
		Dist:    assembleDense(blocks, starts, n),
		Report:  machine.Report(),
		P:       p,
		Traffic: machine.Traffic(),
	}, nil
}

// denseBlocks splits the adjacency matrix into s×s blocks with
// near-equal row/column ranges starts[i]..starts[i+1].
func denseBlocks(g *graph.Graph, s int) ([][]*semiring.Matrix, []int) {
	n := g.N()
	starts := make([]int, s+1)
	for i := 0; i <= s; i++ {
		starts[i] = i * n / s
	}
	blocks := make([][]*semiring.Matrix, s)
	for i := 0; i < s; i++ {
		blocks[i] = make([]*semiring.Matrix, s)
		for j := 0; j < s; j++ {
			blocks[i][j] = semiring.NewMatrix(starts[i+1]-starts[i], starts[j+1]-starts[j])
		}
	}
	owner := func(v int) (int, int) {
		// block index by binary search over the regular split
		b := v * s / n
		for v < starts[b] {
			b--
		}
		for v >= starts[b+1] {
			b++
		}
		return b, v - starts[b]
	}
	for v := 0; v < n; v++ {
		bi, li := owner(v)
		blocks[bi][bi].Set(li, li, 0)
		for _, e := range g.Adj(v) {
			bj, lj := owner(e.To)
			if e.W < blocks[bi][bj].At(li, lj) {
				blocks[bi][bj].Set(li, lj, e.W)
			}
		}
	}
	return blocks, starts
}

func assembleDense(blocks [][]*semiring.Matrix, starts []int, n int) *semiring.Matrix {
	out := semiring.NewMatrix(n, n)
	s := len(blocks)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			b := blocks[i][j]
			for r := 0; r < b.Rows; r++ {
				copy(out.V[(starts[i]+r)*n+starts[j]:(starts[i]+r)*n+starts[j]+b.Cols],
					b.V[r*b.Cols:(r+1)*b.Cols])
			}
		}
	}
	return out
}

func dist2dRank(ctx *comm.Ctx, grid comm.Grid, blocks [][]*semiring.Matrix, starts []int) {
	s := grid.Rows
	myI, myJ := grid.Coords(ctx.Rank())
	A := blocks[myI][myJ]
	ctx.SetMemory(int64(len(A.V)))
	dims := func(b int) int { return starts[b+1] - starts[b] }
	tag := func(k, phase, x int) int { return (k*8+phase)*1024 + x }

	for k := 0; k < s; k++ {
		// Diagonal update on P_kk.
		if myI == k && myJ == k {
			ctx.AddFlops(semiring.ClassicalFW(A))
		}
		// Pivot column: broadcast A(k,k) down column k, update panels.
		if myJ == k {
			var payload []float64
			if myI == k {
				payload = append([]float64(nil), A.V...)
			}
			data := ctx.Bcast(grid.ColRanks(k), grid.Rank(k, k), tag(k, 1, 0), payload)
			if myI != k {
				dk := semiring.FromSlice(dims(k), dims(k), data)
				ctx.AddFlops(semiring.PanelUpdateLeft(A, dk))
			}
		}
		// Pivot row: broadcast A(k,k) along row k, update panels.
		if myI == k {
			var payload []float64
			if myJ == k {
				payload = append([]float64(nil), A.V...)
			}
			data := ctx.Bcast(grid.RowRanks(k), grid.Rank(k, k), tag(k, 2, 0), payload)
			if myJ != k {
				dk := semiring.FromSlice(dims(k), dims(k), data)
				ctx.AddFlops(semiring.PanelUpdateRight(A, dk))
			}
		}
		// Row broadcasts: every P(i,k) with i ≠ k shares A(i,k) along row i.
		var rowPanel, colPanel *semiring.Matrix
		if myI != k {
			var payload []float64
			if myJ == k {
				payload = append([]float64(nil), A.V...)
			}
			data := ctx.Bcast(grid.RowRanks(myI), grid.Rank(myI, k), tag(k, 3, myI), payload)
			rowPanel = semiring.FromSlice(dims(myI), dims(k), data)
			ctx.AddMemory(int64(len(data)))
		}
		// Column broadcasts: every P(k,j) with j ≠ k shares A(k,j) down column j.
		if myJ != k {
			var payload []float64
			if myI == k {
				payload = append([]float64(nil), A.V...)
			}
			data := ctx.Bcast(grid.ColRanks(myJ), grid.Rank(k, myJ), tag(k, 4, myJ), payload)
			colPanel = semiring.FromSlice(dims(k), dims(myJ), data)
			ctx.AddMemory(int64(len(data)))
		}
		// Min-plus outer product everywhere off the pivot cross.
		if rowPanel != nil && colPanel != nil {
			ctx.AddFlops(semiring.MulAddInto(A, rowPanel, colPanel))
		}
		if rowPanel != nil {
			ctx.AddMemory(-int64(len(rowPanel.V)))
		}
		if colPanel != nil {
			ctx.AddMemory(-int64(len(colPanel.V)))
		}
	}
}
