package semiring

import "math"

// CSR-style min-plus multiply. The plain loop rescans the full row of
// A to find its finite pivots, and the tiled kernel rescans every
// (k-tile, j-tile) pass — on a low-density panel almost all of that
// scanning is wasted. SparseIndex is a compact index of the finite
// entries of A, built once and streamed four pivots per pass over C
// like the tiled kernel's register blocking.
//
// The semantics are exactly mulAddPlain's: pivots are visited in
// ascending k order per row, each candidate a(i,k)+b(k,j) is formed
// identically, and the operation count charges len(brow) per finite
// pivot — so results are bit-identical and cost reports are unchanged
// (TestKernelsMatchSerial locks this in).

// SparseDensityThreshold is the finite-entry density of A at and above
// which MulAddInto uses the tiled kernel instead of a CSR index. At
// half full, the index roughly matches the dense row in size and the
// tiled kernel's B-panel reuse wins; below it, skipping the Inf scan
// and the per-tile rescans dominates.
const SparseDensityThreshold = 0.5

// SparseIndex is a CSR view of the finite entries of a matrix: row i's
// pivots are Col/Val[RowPtr[i]:RowPtr[i+1]], ascending in column.
type SparseIndex struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float64
}

// indexMatrix builds the CSR index of a's finite entries, nnz of them,
// which the caller has already counted.
func indexMatrix(a *Matrix, nnz int) *SparseIndex {
	ix := &SparseIndex{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	ix.Col = make([]int, 0, nnz)
	ix.Val = make([]float64, 0, nnz)
	for i := 0; i < a.Rows; i++ {
		for k, v := range a.V[i*a.Cols : (i+1)*a.Cols] {
			if !math.IsInf(v, 1) {
				ix.Col = append(ix.Col, k)
				ix.Val = append(ix.Val, v)
			}
		}
		ix.RowPtr[i+1] = len(ix.Col)
	}
	return ix
}

// IndexIfSparse returns a's CSR index when its density is below
// SparseDensityThreshold, else nil (use the tiled kernel instead).
func IndexIfSparse(a *Matrix) *SparseIndex {
	nnz := a.NNZ()
	if nnz > 0 && float64(nnz)/float64(len(a.V)) >= SparseDensityThreshold {
		return nil
	}
	return indexMatrix(a, nnz)
}

// NNZ returns the number of indexed finite entries.
func (ix *SparseIndex) NNZ() int { return len(ix.Col) }

// MulAddInto computes C = C ⊕ A ⊗ B where A is the indexed matrix.
// Results and the returned operation count are identical to
// MulAddInto(c, a, b).
func (ix *SparseIndex) MulAddInto(c, b *Matrix) int64 {
	checkMulDims(c, &Matrix{Rows: ix.Rows, Cols: ix.Cols}, b)
	jj := b.Cols
	if jj == 0 {
		return 0
	}
	var ops int64
	for i := 0; i < ix.Rows; i++ {
		lo, hi := ix.RowPtr[i], ix.RowPtr[i+1]
		if lo == hi {
			continue
		}
		crow := c.V[i*jj : (i+1)*jj]
		// Fuse four pivots per pass over crow, in ascending k order,
		// exactly like the tiled kernel's register blocking.
		t := lo
		for ; t+4 <= hi; t += 4 {
			ka, kb, kc, kd := ix.Col[t], ix.Col[t+1], ix.Col[t+2], ix.Col[t+3]
			minPlusRow4(crow,
				ix.Val[t], b.V[ka*jj:ka*jj+jj],
				ix.Val[t+1], b.V[kb*jj:kb*jj+jj],
				ix.Val[t+2], b.V[kc*jj:kc*jj+jj],
				ix.Val[t+3], b.V[kd*jj:kd*jj+jj])
		}
		for ; t < hi; t++ {
			k := ix.Col[t]
			minPlusRow(crow, ix.Val[t], b.V[k*jj:k*jj+jj])
		}
		ops += int64(hi-lo) * int64(jj)
	}
	return ops
}
