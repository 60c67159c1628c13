package semiring

import "math"

// Cache-blocked min-plus multiply. The plain i-k-j loop streams
// the whole of B once per row of A — Θ(r·k·c) words of B traffic — so
// for matrices past the last-level cache it is memory bound. The tiled
// kernel iterates (k-tile, j-tile) panels of B in the outer loops and
// all rows of A in the inner loop, keeping a tileK×tileJ panel of B hot
// in cache across every row; the inner kernel is register blocked by
// fusing four pivot rows per pass so each C element is loaded and
// stored once per quad instead of once per pivot.
//
// The semantics are exactly mulAddPlain's: for every output column the
// pivots are visited in ascending k order (the j-tile loop nests inside
// the k-tile loop), each candidate a(i,k)+b(k,j) is formed identically,
// and the Inf-row skip applies per (i,k) element — so results are
// bit-identical and the returned operation count is equal for every
// input (TestKernelsMatchSerial locks this in).

// tileK×tileJ is the panel of B the tiled kernel keeps hot: 64×256
// float64 is 128 KiB, inside a typical L2. BenchmarkMinPlusTileSizes
// sweeps the alternatives (EXPERIMENTS.md E35); one constant replaced a
// first-use autotune whose pick was host noise.
const (
	tileK = 64
	tileJ = 256
)

// mulAddTiled runs the tiled update with tk×tj panels of B. MulAddInto
// passes tileK×tileJ; tests pass small tiles so that tile boundaries
// land inside small shapes.
func mulAddTiled(c, a, b *Matrix, tk, tj int) int64 {
	kk, jj := a.Cols, b.Cols
	if kk == 0 || jj == 0 {
		return 0
	}
	var ops int64
	var pivots [tileK]int // finite pivots of the current (i, k-tile)
	for k0 := 0; k0 < kk; k0 += tk {
		k1 := min(kk, k0+tk)
		for j0 := 0; j0 < jj; j0 += tj {
			j1 := min(jj, j0+tj)
			w := int64(j1 - j0)
			for i := 0; i < a.Rows; i++ {
				arow := a.V[i*kk : (i+1)*kk]
				crow := c.V[i*jj+j0 : i*jj+j1]
				// Collect the finite pivots of this k-tile, then fuse
				// them four at a time so crow is read and written once
				// per quad instead of once per pivot. Pivots stay in
				// ascending k order, preserving serial tie-breaking.
				piv := pivots[:0]
				for k := k0; k < k1; k++ {
					if !math.IsInf(arow[k], 1) {
						piv = append(piv, k)
					}
				}
				x := 0
				for ; x+4 <= len(piv); x += 4 {
					ka, kb, kc, kd := piv[x], piv[x+1], piv[x+2], piv[x+3]
					minPlusRow4(crow,
						arow[ka], b.V[ka*jj+j0:ka*jj+j1],
						arow[kb], b.V[kb*jj+j0:kb*jj+j1],
						arow[kc], b.V[kc*jj+j0:kc*jj+j1],
						arow[kd], b.V[kd*jj+j0:kd*jj+j1])
				}
				for ; x < len(piv); x++ {
					k := piv[x]
					minPlusRow(crow, arow[k], b.V[k*jj+j0:k*jj+j1])
				}
				ops += int64(len(piv)) * w
			}
		}
	}
	return ops
}

// minPlusRow folds crow[j] = crow[j] ⊕ (aik ⊗ brow[j]).
func minPlusRow(crow []float64, aik float64, brow []float64) {
	for j, bkj := range brow {
		if s := aik + bkj; s < crow[j] {
			crow[j] = s
		}
	}
}

// minPlusRow4 folds four pivot rows in one pass over crow. Candidates
// are applied in argument order, matching the serial ascending-k order.
func minPlusRow4(crow []float64, a1 float64, b1 []float64, a2 float64, b2 []float64,
	a3 float64, b3 []float64, a4 float64, b4 []float64) {
	if len(crow) == 0 {
		return
	}
	_ = b1[len(crow)-1] // hoist bounds checks out of the loop
	_ = b2[len(crow)-1]
	_ = b3[len(crow)-1]
	_ = b4[len(crow)-1]
	for j := range crow {
		v := crow[j]
		if s := a1 + b1[j]; s < v {
			v = s
		}
		if s := a2 + b2[j]; s < v {
			v = s
		}
		if s := a3 + b3[j]; s < v {
			v = s
		}
		if s := a4 + b4[j]; s < v {
			v = s
		}
		crow[j] = v
	}
}
