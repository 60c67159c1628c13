package semiring

import (
	"fmt"
	"math"
)

// Packed block wire format.
//
// The distributed solvers broadcast supernodal blocks between ranks,
// and the simulated machine charges bandwidth per payload word — so
// the encoding of a block IS its wire cost. A dense n²-word payload
// for an all-Inf block is exactly the waste the paper's |S|² bandwidth
// term says a sparse-aware implementation avoids. Pack chooses, per
// block, the smallest of three encodings:
//
//	[packEmpty]                           1 word: every entry is Inf
//	[packDense, v0, v1, ...]              1 + n words: raw row-major body
//	[packSparse, nnz, i0, v0, i1, v1, ..] 2 + 2·nnz words: flat index +
//	                                      value pairs, ascending index
//
// PackPruned adds a fourth, demand-aware encoding (the "pruned" wire
// format of the communication-v2 layer):
//
//	[packPruned, nr, nc, r0..r(nr-1), c0..c(nc-1), body]
//	                                      3 + nr + nc + nr·nc words: the
//	                                      kept-rows × kept-cols submatrix,
//	                                      row-major, preceded by the
//	                                      ascending row and column index
//	                                      lists
//
// Entries outside the kept rectangle decode to Inf: the sender only
// ships rows/columns some receiver can fold into a finite output (the
// plan's symbolic demand), further trimmed to the rows/columns that are
// numerically non-empty. PackPruned picks whichever of the four
// encodings is smallest, so "pruned" payloads are never larger than
// "packed" ones for the same demand.
//
// A pivot payload (PackPruned's dropZeroDiag) that is its own transpose
// on S, the kept rows that are also kept columns, ships its S×S part as
// a strict upper triangle:
//
//	[packTriangle, nr, nc, r0..r(nr-1), c0..c(nc-1), body]
//	                                      TriangleLen(nr, nc, s) words:
//	                                      the pruned layout, its body
//	                                      skipping every (r, c) with r, c
//	                                      in S and r >= c
//
// The decoder mirrors (c, r) into (r, c) and writes +0 on S's diagonal,
// so it yields exactly the block the pruned encoding would. A pivot
// whose S×S part is not bit-symmetric, or whose S diagonal holds
// anything but +0, ships pruned instead.
//
// The tag and indices are stored as float64 — the simulated machine
// moves words, not bytes, and flat indices below 2^53 are exact. The
// receiver knows the block's dimensions from the shared Layout, so
// they are never on the wire.
const (
	packEmpty    = 0
	packDense    = 1
	packSparse   = 2
	packPruned   = 3
	packTriangle = 4
)

// PackedLen returns the wire length Pack would produce for v without
// materializing the payload.
func PackedLen(v []float64) int {
	nnz := 0
	for _, x := range v {
		if !math.IsInf(x, 1) {
			nnz++
		}
	}
	return ClassicLen(len(v), nnz)
}

// ClassicLen is the wire length Pack produces for an n-entry body
// holding nnz finite entries: the shortest of the empty, sparse and
// dense encodings.
func ClassicLen(n, nnz int) int {
	if nnz == 0 {
		return 1
	}
	if sparse := 2 + 2*nnz; sparse < 1+n {
		return sparse
	}
	return 1 + n
}

// Pack encodes v (the row-major body of a block) in the smallest of
// the three wire encodings. The result never aliases v.
func Pack(v []float64) []float64 {
	nnz := 0
	for _, x := range v {
		if !math.IsInf(x, 1) {
			nnz++
		}
	}
	if nnz == 0 {
		return []float64{packEmpty}
	}
	if 2+2*nnz < 1+len(v) {
		out := make([]float64, 2, 2+2*nnz)
		out[0], out[1] = packSparse, float64(nnz)
		for i, x := range v {
			if !math.IsInf(x, 1) {
				out = append(out, float64(i), x)
			}
		}
		return out
	}
	out := make([]float64, 1+len(v))
	out[0] = packDense
	copy(out[1:], v)
	return out
}

// Unpack decodes a Pack payload back to a length-n row-major body. The
// returned slice is always freshly allocated and never aliases payload:
// the simulated collectives hand every receiver the same backing array,
// so an aliasing decode would let one receiver's block mutation
// silently corrupt any retained payload buffer (and every sibling
// receiver). Pruned payloads carry their own shape and cannot be
// decoded by Unpack; use UnpackPruned / UnpackMatrix.
func Unpack(payload []float64, n int) []float64 {
	if len(payload) == 0 {
		panic("semiring: Unpack of empty payload")
	}
	switch payload[0] {
	case packEmpty:
		if len(payload) != 1 {
			panic(fmt.Sprintf("semiring: empty encoding with %d words", len(payload)))
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = Inf
		}
		return v
	case packDense:
		if len(payload) != 1+n {
			panic(fmt.Sprintf("semiring: dense encoding %d words for n=%d", len(payload), n))
		}
		return append([]float64(nil), payload[1:]...)
	case packPruned, packTriangle:
		panic("semiring: pruned payload needs its block shape; use UnpackPruned")
	case packSparse:
		if len(payload) < 2 {
			panic("semiring: truncated sparse encoding")
		}
		nnz := int(payload[1])
		if len(payload) != 2+2*nnz {
			panic(fmt.Sprintf("semiring: sparse encoding %d words for nnz=%d", len(payload), nnz))
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = Inf
		}
		for t := 0; t < nnz; t++ {
			idx := int(payload[2+2*t])
			if idx < 0 || idx >= n {
				panic(fmt.Sprintf("semiring: sparse index %d out of range [0,%d)", idx, n))
			}
			v[idx] = payload[3+2*t]
		}
		return v
	default:
		panic(fmt.Sprintf("semiring: unknown pack tag %g", payload[0]))
	}
}

// PackMatrix encodes m's body for the wire.
func PackMatrix(m *Matrix) []float64 { return Pack(m.V) }

// UnpackMatrix decodes a PackMatrix or PackPruned payload into a
// rows×cols matrix. Like Unpack, the result owns its body and never
// aliases payload.
func UnpackMatrix(payload []float64, rows, cols int) *Matrix {
	if len(payload) > 0 && (payload[0] == packPruned || payload[0] == packTriangle) {
		return unpackPrunedBody(payload, rows, cols)
	}
	return FromSlice(rows, cols, Unpack(payload, rows*cols))
}

// PackPruned encodes m for a receiver set whose symbolic demand is the
// given row and column keep-lists (ascending; nil means "all rows" /
// "all columns" — the `full` descriptor). Demanded rows/columns that
// are numerically all-Inf inside the demanded rectangle are trimmed
// too, then the smallest of the four encodings is chosen, so the
// result is never larger than Pack(m.V). Entries outside the kept
// rectangle decode to Inf — callers must only prune rows/columns that
// provably fold to Inf at every receiver.
//
// dropZeroDiag additionally treats exact-zero diagonal entries as
// absent for the keep decision. It is sound only for pivot payloads
// D(k,k) consumed as A ⊕= A⊗D or A ⊕= D⊗A: the term a zero diagonal
// entry contributes to output entry (i,t) is A[i,t]+0 — the value the
// ⊕= fold already holds — so min(x,x) = x keeps the result
// bit-identical whether or not the entry ships. A dropped entry that
// still falls inside the kept rectangle ships anyway (with its true
// value), which is equally exact. The same flag lets the payload ship
// its symmetric core as a triangle (packTriangle).
func PackPruned(m *Matrix, rows, cols []int32, dropZeroDiag bool) []float64 {
	keepR, keepC, seen := prunedKeep(m, rows, cols, dropZeroDiag)
	if len(keepR) == 0 || len(keepC) == 0 {
		return []float64{packEmpty}
	}
	var core []bool // core[t]: t is in S, shipped once for (t, u) and (u, t)
	s := 0
	if dropZeroDiag {
		core, s = symmetricCore(m, keepR, keepC)
	}
	prunedLen := TriangleLen(len(keepR), len(keepC), s)
	// The block holds at least the seen non-Inf entries, so a classic
	// encoding is at least ClassicLen of them: when that already
	// exceeds prunedLen the full-block count is not needed.
	if ClassicLen(len(m.V), seen) <= prunedLen && PackedLen(m.V) <= prunedLen {
		return Pack(m.V)
	}
	tag := packPruned
	if s > 0 {
		tag = packTriangle
	}
	out := make([]float64, 0, prunedLen)
	out = append(out, float64(tag), float64(len(keepR)), float64(len(keepC)))
	for _, r := range keepR {
		out = append(out, float64(r))
	}
	for _, c := range keepC {
		out = append(out, float64(c))
	}
	for _, r := range keepR {
		row := m.V[int(r)*m.Cols : int(r)*m.Cols+m.Cols]
		for _, c := range keepC {
			if s > 0 && core[r] && core[c] && r >= c {
				continue
			}
			out = append(out, row[c])
		}
	}
	return out
}

// PrunedLen is the wire length of the pruned encoding of an nr×nc kept
// rectangle.
func PrunedLen(nr, nc int) int { return 3 + nr + nc + nr*nc }

// TriangleLen is the wire length of an nr×nc kept rectangle whose s
// indices kept on both axes ship as a strict upper triangle: the pruned
// length less the s(s+1)/2 entries on and below S's diagonal. With s = 0
// it is PrunedLen.
func TriangleLen(nr, nc, s int) int { return PrunedLen(nr, nc) - s*(s+1)/2 }

// symmetricCore returns S, the indices both keep-lists hold, as a mark
// per index, and its size — or size 0 when the triangle encoding cannot
// carry the block: it is not square, a diagonal entry of S is not +0, or
// S×S is not bit-symmetric.
func symmetricCore(m *Matrix, keepR, keepC []int32) ([]bool, int) {
	if m.Rows != m.Cols {
		return nil, 0
	}
	core := make([]bool, m.Rows)
	var s []int32
	for i, j := 0, 0; i < len(keepR) && j < len(keepC); {
		switch r, c := keepR[i], keepC[j]; {
		case r < c:
			i++
		case r > c:
			j++
		default:
			core[r] = true
			s = append(s, r)
			i, j = i+1, j+1
		}
	}
	for x, a := range s {
		if math.Float64bits(m.V[int(a)*m.Cols+int(a)]) != 0 {
			return nil, 0
		}
		for _, b := range s[x+1:] {
			if math.Float64bits(m.V[int(a)*m.Cols+int(b)]) != math.Float64bits(m.V[int(b)*m.Cols+int(a)]) {
				return nil, 0
			}
		}
	}
	return core, len(s)
}

// prunedKeep intersects the demand keep-lists with the numerically
// non-empty rows/columns of m: a demanded row survives if it holds a
// finite entry in some demanded column, and a demanded column survives
// if it holds a finite entry in some surviving row. With dropZeroDiag,
// an exact-zero diagonal entry does not count as finite (see
// PackPruned). seen counts the non-Inf entries of the demanded
// rectangle, droppable ones included.
func prunedKeep(m *Matrix, rows, cols []int32, dropZeroDiag bool) (keepR, keepC []int32, seen int) {
	demandC := cols
	if demandC == nil {
		demandC = make([]int32, m.Cols)
		for c := range demandC {
			demandC[c] = int32(c)
		}
	}
	colAny := make([]bool, m.Cols)
	scanRow := func(r int32) bool {
		row := m.V[int(r)*m.Cols : int(r)*m.Cols+m.Cols]
		any := false
		for _, c := range demandC {
			if math.IsInf(row[c], 1) {
				continue
			}
			seen++
			if dropZeroDiag && int(c) == int(r) && row[c] == 0 {
				continue
			}
			any = true
			colAny[c] = true
		}
		return any
	}
	if rows == nil {
		for r := 0; r < m.Rows; r++ {
			if scanRow(int32(r)) {
				keepR = append(keepR, int32(r))
			}
		}
	} else {
		for _, r := range rows {
			if scanRow(r) {
				keepR = append(keepR, r)
			}
		}
	}
	for _, c := range demandC {
		if colAny[c] {
			keepC = append(keepC, c)
		}
	}
	return keepR, keepC, seen
}

// UnpackPruned decodes any block payload — the three Pack encodings or
// the pruned one — into a rows×cols matrix that owns its body. Entries
// outside a pruned payload's kept rectangle come back as Inf.
func UnpackPruned(payload []float64, rows, cols int) *Matrix {
	return UnpackMatrix(payload, rows, cols)
}

// unpackPrunedBody decodes the packPruned and packTriangle layouts;
// malformed payloads panic, mirroring Unpack's policy.
func unpackPrunedBody(payload []float64, rows, cols int) *Matrix {
	if len(payload) < 3 {
		panic("semiring: truncated pruned encoding")
	}
	nr, nc := int(payload[1]), int(payload[2])
	if nr < 0 || nc < 0 || nr > len(payload) || nc > len(payload) || len(payload) < 3+nr+nc {
		panic(fmt.Sprintf("semiring: pruned encoding %d words for nr=%d nc=%d", len(payload), nr, nc))
	}
	rowIdx := payload[3 : 3+nr]
	colIdx := payload[3+nr : 3+nr+nc]
	var core []bool
	s := 0
	if payload[0] == packTriangle {
		core, s = triangleCore(rowIdx, colIdx, rows, cols)
	}
	if len(payload) != TriangleLen(nr, nc, s) {
		panic(fmt.Sprintf("semiring: pruned encoding %d words for nr=%d nc=%d s=%d", len(payload), nr, nc, s))
	}
	m := NewMatrix(rows, cols)
	body := payload[3+nr+nc:]
	for _, rf := range rowIdx {
		r := int(rf)
		if r < 0 || r >= rows {
			panic(fmt.Sprintf("semiring: pruned row index %d out of range [0,%d)", r, rows))
		}
		for _, cf := range colIdx {
			c := int(cf)
			if c < 0 || c >= cols {
				panic(fmt.Sprintf("semiring: pruned col index %d out of range [0,%d)", c, cols))
			}
			if s > 0 && core[r] && core[c] && r >= c {
				continue
			}
			m.V[r*cols+c] = body[0]
			body = body[1:]
		}
	}
	for r, in := range core {
		if !in {
			continue
		}
		m.V[r*cols+r] = 0
		for c := 0; c < r; c++ {
			if core[c] {
				m.V[r*cols+c] = m.V[c*cols+r]
			}
		}
	}
	return m
}

// triangleCore validates a packTriangle payload's index lists — a square
// block, strictly ascending lists in range sharing at least one index —
// and returns S as a mark per index and its size.
func triangleCore(rowIdx, colIdx []float64, rows, cols int) ([]bool, int) {
	if rows != cols {
		panic(fmt.Sprintf("semiring: triangle encoding for a %dx%d block", rows, cols))
	}
	inRows := make([]bool, rows)
	for _, list := range [2][]float64{rowIdx, colIdx} {
		prev := -1
		for _, f := range list {
			if t := int(f); float64(t) != f || t <= prev || t >= rows {
				panic(fmt.Sprintf("semiring: triangle index %g not ascending in [0,%d)", f, rows))
			} else {
				prev = t
			}
		}
	}
	for _, f := range rowIdx {
		inRows[int(f)] = true
	}
	core := make([]bool, rows)
	s := 0
	for _, f := range colIdx {
		if t := int(f); inRows[t] {
			core[t] = true
			s++
		}
	}
	if s == 0 {
		panic("semiring: triangle encoding with no index on both axes")
	}
	return core, s
}

// UpperLen is the length of an n×n block's upper triangle, diagonal
// included: the words PackUpper ships.
func UpperLen(n int) int { return n * (n + 1) / 2 }

// PackUpper returns the upper triangle of the square block m, diagonal
// included, row by row. A block that is its own transpose travels this
// way: min-folding such vectors entry by entry is min-folding the blocks.
func PackUpper(m *Matrix) []float64 {
	n := m.Rows
	out := make([]float64, 0, UpperLen(n))
	for r := 0; r < n; r++ {
		out = append(out, m.V[r*n+r:r*n+n]...)
	}
	return out
}

// MinIntoUpper min-folds a PackUpper vector into both halves of the
// square block m: entry (r, c) of the triangle into (r, c) and (c, r).
func MinIntoUpper(m *Matrix, tri []float64) {
	n := m.Rows
	if m.Cols != n || len(tri) != UpperLen(n) {
		panic(fmt.Sprintf("semiring: MinIntoUpper of %d words into a %dx%d block", len(tri), m.Rows, m.Cols))
	}
	for r := 0; r < n; r++ {
		for c := r; c < n; c++ {
			v := tri[0]
			tri = tri[1:]
			if v < m.V[r*n+c] {
				m.V[r*n+c] = v
			}
			if v < m.V[c*n+r] {
				m.V[c*n+r] = v
			}
		}
	}
}
