package comm

import "fmt"

// Grid is a logical 2D processor grid laid over the machine's ranks in
// row-major order. Both the dense baselines and the sparse algorithm of
// the paper place block (i, j) of the distance matrix on processor
// P_ij = rank i*Cols + j.
type Grid struct {
	Rows, Cols int
}

// NewSquareGrid returns the √p × √p grid for a machine of p ranks, or
// an error if p is not a perfect square.
func NewSquareGrid(p int) (Grid, error) {
	s := isqrt(p)
	if s*s != p {
		return Grid{}, fmt.Errorf("comm: p=%d is not a perfect square", p)
	}
	return Grid{Rows: s, Cols: s}, nil
}

// isqrt returns ⌊√n⌋ for n ≥ 0.
func isqrt(n int) int {
	if n < 0 {
		panic("comm: isqrt of negative number")
	}
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// Rank returns the rank of grid position (i, j), 0-based.
func (g Grid) Rank(i, j int) int {
	if i < 0 || i >= g.Rows || j < 0 || j >= g.Cols {
		panic(fmt.Sprintf("comm: grid position (%d,%d) outside %dx%d", i, j, g.Rows, g.Cols))
	}
	return i*g.Cols + j
}

// Coords returns the grid position of rank.
func (g Grid) Coords(rank int) (i, j int) {
	if rank < 0 || rank >= g.Rows*g.Cols {
		panic(fmt.Sprintf("comm: rank %d outside %dx%d grid", rank, g.Rows, g.Cols))
	}
	return rank / g.Cols, rank % g.Cols
}

// RowRanks returns the ranks of row i in column order.
func (g Grid) RowRanks(i int) []int {
	out := make([]int, g.Cols)
	for j := range out {
		out[j] = g.Rank(i, j)
	}
	return out
}

// ColRanks returns the ranks of column j in row order.
func (g Grid) ColRanks(j int) []int {
	out := make([]int, g.Rows)
	for i := range out {
		out[i] = g.Rank(i, j)
	}
	return out
}
