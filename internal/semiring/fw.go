package semiring

import (
	"fmt"
	"math"
)

// ClassicalFW runs the classical Floyd–Warshall update on the square
// matrix m in place: m_ij = m_ij ⊕ m_ik ⊗ m_kj for all k, i, j. The
// diagonal is clamped to ⊕0 first so that a block whose diagonal was
// never initialized still behaves as a distance matrix. It returns the
// charged operation count: n per (pivot, row) pair whose m_ik is
// finite when pivot k is reached.
//
// A matrix that symmetricNonNegative proves — every diagonal block of
// an undirected graph — runs on its lower triangle, four pivots per
// pass (classicalFWTriangle); anything else takes the general loop
// (classicalFWRef). Distances and the returned count are bit-identical
// either way; DESIGN §semiring has the argument.
func ClassicalFW(m *Matrix) int64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("semiring: ClassicalFW on %dx%d matrix", m.Rows, m.Cols))
	}
	if m.Rows >= triangleMinN && symmetricNonNegative(m) {
		return classicalFWTriangle(m)
	}
	return classicalFWRef(m)
}

// triangleMinN is the size below which the proof, the pivot gather and
// the final mirror cost more than the half of the updates they save.
const triangleMinN = 12

// classicalFWRef is the general i-k-j Floyd–Warshall loop: any input,
// including asymmetric matrices, negative edges and NaN. It is the
// fallback of ClassicalFW and the reference its tests compare against.
func classicalFWRef(m *Matrix) int64 {
	n := m.Rows
	clampDiagonal(m)
	var ops int64
	for k := 0; k < n; k++ {
		krow := m.V[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			mik := m.V[i*n+k]
			if math.IsInf(mik, 1) {
				continue
			}
			minPlusRow(m.V[i*n:(i+1)*n], mik, krow)
			ops += int64(n)
		}
	}
	return ops
}

func clampDiagonal(m *Matrix) {
	n := m.Rows
	for i := 0; i < n; i++ {
		if m.V[i*n+i] > 0 {
			m.V[i*n+i] = 0
		}
	}
}

// symmetricNonNegative reports whether every entry of the square matrix
// m is a non-negative number or +Inf with its sign bit clear, and every
// mirror pair m_ij, m_ji is bit-equal. NaN, −0, a negative entry and a
// pair one ulp apart all fail. O(n²), returning at the first failure.
func symmetricNonNegative(m *Matrix) bool {
	n := m.Rows
	infBits := math.Float64bits(Inf)
	for i := 0; i < n; i++ {
		row := m.V[i*n : (i+1)*n]
		for j := 0; j <= i; j++ {
			// Bit patterns above +Inf's are the NaNs and everything
			// with the sign bit set.
			b := math.Float64bits(row[j])
			if b > infBits || b != math.Float64bits(m.V[j*n+i]) {
				return false
			}
		}
	}
	return true
}

// classicalFWTriangle is ClassicalFW for a matrix symmetricNonNegative
// has proven. Under that proof the diagonal is +0 after the clamp and
// stays +0 (no candidate is negative), so step k leaves row and column
// k unchanged and every step preserves bit-symmetry (the mirror
// candidate adds the same two floats). Step k therefore reads only a
// snapshot p of row k — candidate (i,j) is p[i] + p[j] — and only the
// lower triangle needs updating; the upper half is mirrored at the end.
//
// Pivots go four at a time: rows k..k+3 are gathered from the triangle,
// row k+t is brought through steps k..k+t−1 so it is the snapshot step
// k+t would have read, and one pass folds all four into every row in
// ascending pivot order (foldGroup).
func classicalFWTriangle(m *Matrix) int64 {
	n := m.Rows
	clampDiagonal(m)
	scratch := make([]float64, 4*n)
	p0, p1, p2, p3 := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	var finite int64 // (pivot, row) pairs the general loop would not skip
	k := 0
	for ; k+4 <= n; k += 4 {
		gatherRow(m, k, 0, n, p0)
		gatherRow(m, k+1, 0, n, p1)
		gatherRow(m, k+2, 0, n, p2)
		gatherRow(m, k+3, 0, n, p3)
		prepareGroup(k, p0, p1, p2, p3)
		finite += foldGroup(m, 0, n, p0, p1, p2, p3)
	}
	for ; k < n; k++ {
		gatherRow(m, k, 0, n, p0)
		finite += foldPivot(m, 0, n, p0)
	}
	mirrorLower(m)
	return finite * int64(n)
}

// prepareGroup brings the gathered rows p1..p3 of the pivot group
// k..k+3 through the group's earlier pivots.
func prepareGroup(k int, p0, p1, p2, p3 []float64) {
	minPlusRow(p1, p0[k+1], p0)
	minPlusRow(p2, p0[k+2], p0)
	minPlusRow(p2, p1[k+2], p1)
	minPlusRow(p3, p0[k+3], p0)
	minPlusRow(p3, p1[k+3], p1)
	minPlusRow(p3, p2[k+3], p2)
}

// foldGroup folds a prepared pivot group into the stored prefix of each
// of rows [lo, hi) and returns the (pivot, row) pairs with a finite
// pivot entry. Row i reads only the group's rows and writes only its own
// prefix, so rows split in any way give the same bits (FWSplit).
func foldGroup(m *Matrix, lo, hi int, p0, p1, p2, p3 []float64) int64 {
	n := m.Rows
	var finite int64
	for i := lo; i < hi; i++ {
		a0, a1, a2, a3 := p0[i], p1[i], p2[i], p3[i]
		live := countFinite(a0) + countFinite(a1) + countFinite(a2) + countFinite(a3)
		if live == 0 {
			continue
		}
		finite += live
		// An Inf pivot entry only makes Inf candidates, which
		// never win: folding it is the general loop's skip.
		minPlusRow4(m.V[i*n:i*n+i+1], a0, p0, a1, p1, a2, p2, a3, p3)
	}
	return finite
}

// foldPivot is foldGroup for one pivot, whose gathered row is p0.
func foldPivot(m *Matrix, lo, hi int, p0 []float64) int64 {
	n := m.Rows
	var finite int64
	for i := lo; i < hi; i++ {
		if math.IsInf(p0[i], 1) {
			continue
		}
		finite++
		minPlusRow(m.V[i*n:i*n+i+1], p0[i], p0[:i+1])
	}
	return finite
}

func countFinite(v float64) int64 {
	if math.IsInf(v, 1) {
		return 0
	}
	return 1
}

// gatherRow copies the part of row k of the symmetric matrix whose
// lower triangle is current that rows [lo, hi) store into dst: row k's
// stored part if k is one of them, and column k of the ones below the
// diagonal. Over [0, n) it is the whole row.
func gatherRow(m *Matrix, k, lo, hi int, dst []float64) {
	n := m.Rows
	if lo <= k && k < hi {
		copy(dst, m.V[k*n:k*n+k+1])
	}
	for j := max(lo, k+1); j < hi; j++ {
		dst[j] = m.V[j*n+k]
	}
}

// mirrorLower overwrites the upper triangle with the lower one, in
// square tiles so the strided writes stay inside a few cache lines.
func mirrorLower(m *Matrix) {
	const tile = 32
	n := m.Rows
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(n, i0+tile)
		for j0 := 0; j0 <= i0; j0 += tile {
			j1 := min(n, j0+tile)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1 && j < i; j++ {
					m.V[j*n+i] = m.V[i*n+j]
				}
			}
		}
	}
}
