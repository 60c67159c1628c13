// Package semiring implements dense matrix operations over the tropical
// (min, +) semiring of Section 3.3: x ⊕ y = min(x, y) and x ⊗ y = x + y,
// with +∞ as the additive identity. These are the ClassicalFW and
// blocked kernels that both the sequential baselines and the local
// per-block work of the distributed algorithms are built from.
package semiring

import (
	"fmt"
	"math"
)

// Inf is the additive identity of the min-plus semiring (no path).
var Inf = math.Inf(1)

// Matrix is a dense row-major matrix over the min-plus semiring.
// Zero-dimension matrices are valid and all operations treat them as
// empty (supernodes produced by nested dissection may be empty).
type Matrix struct {
	Rows, Cols int
	V          []float64
}

// NewMatrix returns a Rows×Cols matrix filled with Inf.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("semiring: negative dimensions %dx%d", rows, cols))
	}
	v := make([]float64, rows*cols)
	for i := range v {
		v[i] = Inf
	}
	return &Matrix{Rows: rows, Cols: cols, V: v}
}

// FromSlice wraps data (row-major, length rows*cols) as a matrix without
// copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("semiring: data length %d for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, V: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.V[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.V[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, V: append([]float64(nil), m.V...)}
}

// CopyFrom overwrites m with src; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("semiring: copy %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	copy(m.V, src.V)
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{Rows: m.Cols, Cols: m.Rows, V: make([]float64, len(m.V))}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.V[j*t.Cols+i] = m.V[i*m.Cols+j]
		}
	}
	return t
}

// Equal reports whether m and o have the same shape and identical
// entries (Inf compares equal to Inf).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.V {
		if v != o.V[i] && !(math.IsInf(v, 1) && math.IsInf(o.V[i], 1)) {
			return false
		}
	}
	return true
}

// EqualTol reports whether m and o match within absolute tolerance tol
// (Inf must match exactly).
func (m *Matrix) EqualTol(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.V {
		w := o.V[i]
		if math.IsInf(v, 1) || math.IsInf(w, 1) {
			if math.IsInf(v, 1) != math.IsInf(w, 1) {
				return false
			}
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// NNZ counts the finite entries of m — the structural nonzeros of the
// min-plus semiring, where Inf is the additive identity.
func (m *Matrix) NNZ() int {
	nnz := 0
	for _, v := range m.V {
		if !math.IsInf(v, 1) {
			nnz++
		}
	}
	return nnz
}

// IsAllInf reports whether every entry is Inf — the "empty block"
// predicate of Section 4.1 whose computations can be skipped. Only tests
// call it; it short-circuits on the first finite entry instead of
// counting all of them like NNZ.
func (m *Matrix) IsAllInf() bool {
	for _, v := range m.V {
		if !math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// MinInto folds src into dst element-wise: dst = dst ⊕ src. It is the
// reduction operator passed to comm collectives.
func MinInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("semiring: MinInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			v := m.At(i, j)
			if math.IsInf(v, 1) {
				s += "."
			} else {
				s += fmt.Sprintf("%g", v)
			}
		}
		s += "\n"
	}
	return s
}
