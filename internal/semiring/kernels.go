package semiring

import (
	"fmt"
	"math"
)

// Every kernel returns the number of semiring operations it is charged
// (one ⊕ plus one ⊗ per inner-loop step of the reference loops), so
// callers can charge the simulated machine's flop clock and the
// experiments can verify the F = Ω(n²|S|) operation-count bound of
// Lemma 6.4. The count is a formula over the finite entries of the
// operands, never a loop counter, so it does not depend on which
// implementation the dispatch below picks.

// plainLoopMaxOps is the r·k·c volume up to which MulAddInto keeps the
// plain loop: below it the density scan and the pivot bookkeeping of
// the other two kernels cost more than they save.
const plainLoopMaxOps = 4096

// MulAddInto computes C = C ⊕ A ⊗ B. A is r×k, B is k×c, C is r×c, and
// C must not alias A or B. Inf entries of A are skipped (the
// empty-block saving of Section 4.1 at element granularity) and charged
// nothing: the result is c per finite entry of A.
//
// It picks one of three loops from the operands alone: the plain i-k-j
// loop for tiny products, a CSR index of A's finite entries when fewer
// than SparseDensityThreshold of them are finite, and the cache-blocked
// four-pivot kernel otherwise. Every candidate a(i,k)+b(k,j) is formed
// once and folded in ascending k order by all three, so the matrix and
// the count are bit-identical whichever runs.
func MulAddInto(c, a, b *Matrix) int64 {
	checkMulDims(c, a, b)
	if a.Rows*a.Cols*b.Cols <= plainLoopMaxOps {
		return mulAddPlain(c, a, b)
	}
	if ix := IndexIfSparse(a); ix != nil {
		return ix.MulAddInto(c, b)
	}
	return mulAddTiled(c, a, b, tileK, tileJ)
}

func checkMulDims(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("semiring: mul dims %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

// mulAddPlain is the reference i-k-j loop: B's rows stream sequentially
// and Inf entries of A are skipped. The other kernels are tested
// against it.
func mulAddPlain(c, a, b *Matrix) int64 {
	var ops int64
	for i := 0; i < a.Rows; i++ {
		arow := a.V[i*a.Cols : (i+1)*a.Cols]
		crow := c.V[i*c.Cols : (i+1)*c.Cols]
		for k, aik := range arow {
			if math.IsInf(aik, 1) {
				continue
			}
			brow := b.V[k*b.Cols : (k+1)*b.Cols]
			minPlusRow(crow, aik, brow)
			ops += int64(len(brow))
		}
	}
	return ops
}

// PanelUpdateLeft computes P = P ⊕ P ⊗ D for a column panel P (r×k) and
// diagonal block D (k×k): the A(i,k) ← A(i,k) ⊕ A(i,k)⊗A(k,k) step of
// the blocked algorithm. D must already be transitively closed
// (ClassicalFW applied), which makes a single pass sufficient.
func PanelUpdateLeft(p, d *Matrix) int64 {
	return PanelUpdateLeftScratch(p, d, nil)
}

// PanelUpdateRight computes P = P ⊕ D ⊗ P for a row panel P (k×c) and a
// transitively closed diagonal block D (k×k).
func PanelUpdateRight(p, d *Matrix) int64 {
	return PanelUpdateRightScratch(p, d, nil)
}

// PanelUpdateLeftScratch is PanelUpdateLeft with the snapshot of P
// taken into a's scratch space instead of a fresh allocation (a nil
// arena allocates).
func PanelUpdateLeftScratch(p, d *Matrix, a *Arena) int64 {
	return MulAddInto(p, snapshot(p, a), d)
}

// PanelUpdateRightScratch is PanelUpdateRight with an arena-backed
// snapshot; see PanelUpdateLeftScratch.
func PanelUpdateRightScratch(p, d *Matrix, a *Arena) int64 {
	return MulAddInto(p, d, snapshot(p, a))
}

func snapshot(p *Matrix, a *Arena) *Matrix {
	tmp := FromSlice(p.Rows, p.Cols, a.Scratch(len(p.V)))
	copy(tmp.V, p.V)
	return tmp
}
