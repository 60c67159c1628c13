package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MulAddIntoFull is MulAddInto without the Inf skip; it always performs
// r·k·c operations: the classical (non-avoiding) cost the skipping
// kernel's count is compared against.
func MulAddIntoFull(c, a, b *Matrix) int64 {
	checkMulDims(c, a, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.V[i*a.Cols : (i+1)*a.Cols]
		crow := c.V[i*c.Cols : (i+1)*c.Cols]
		for k, aik := range arow {
			minPlusRow(crow, aik, b.V[k*b.Cols:(k+1)*b.Cols])
		}
	}
	return int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
}

// IndexMatrix builds the CSR index of a's finite entries.
func IndexMatrix(a *Matrix) *SparseIndex { return indexMatrix(a, a.NNZ()) }

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.V {
		m.V[i] = v
	}
}

// naiveMulAdd is the obvious triple loop, used as the oracle.
func naiveMulAdd(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			best := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				if s := a.At(i, k) + b.At(k, j); s < best {
					best = s
				}
			}
			c.Set(i, j, best)
		}
	}
}

func randomMatrix(rows, cols int, infFrac float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.V {
		if rng.Float64() >= infFrac {
			m.V[i] = math.Floor(rng.Float64()*20) - 2 // include negatives
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if !m.IsAllInf() {
		t.Error("new matrix should be all Inf")
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	if m.IsAllInf() {
		t.Error("matrix with an entry is not all Inf")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	if !math.IsInf(m.At(0, 0), 1) {
		t.Error("clone mutation leaked")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Error("transpose wrong")
	}
}

func TestZeroDimensionMatrices(t *testing.T) {
	a := NewMatrix(0, 5)
	b := NewMatrix(5, 0)
	c := NewMatrix(0, 0)
	if ops := MulAddInto(c, a, b); ops != 0 {
		t.Errorf("empty mul ops = %d", ops)
	}
	d := NewMatrix(0, 0)
	if ops := ClassicalFW(d); ops != 0 {
		t.Errorf("empty FW ops = %d", ops)
	}
	e := NewMatrix(3, 0)
	f := NewMatrix(0, 4)
	g := NewMatrix(3, 4)
	before := g.Clone()
	MulAddInto(g, e, f)
	if !g.Equal(before) {
		t.Error("mul with empty inner dimension changed C")
	}
}

func TestMulAddIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		r, k, c := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(r, k, 0.3, rng)
		b := randomMatrix(k, c, 0.3, rng)
		c1 := randomMatrix(r, c, 0.5, rng)
		c2 := c1.Clone()
		MulAddInto(c1, a, b)
		naiveMulAdd(c2, a, b)
		if !c1.Equal(c2) {
			t.Fatalf("trial %d: MulAddInto diverges from naive\n%v\nvs\n%v", trial, c1, c2)
		}
	}
}

func TestMulAddIntoFullMatchesSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(8, 9, 0.5, rng)
	b := randomMatrix(9, 7, 0.5, rng)
	c1 := randomMatrix(8, 7, 0.5, rng)
	c2 := c1.Clone()
	opsSkip := MulAddInto(c1, a, b)
	opsFull := MulAddIntoFull(c2, a, b)
	if !c1.Equal(c2) {
		t.Fatal("full and skipping kernels disagree")
	}
	if opsFull != 8*9*7 {
		t.Errorf("full ops = %d, want %d", opsFull, 8*9*7)
	}
	if opsSkip > opsFull {
		t.Errorf("skipping ops %d exceed full ops %d", opsSkip, opsFull)
	}
}

func TestClassicalFWOnTriangle(t *testing.T) {
	// 3-cycle with a shortcut: 0-1 (1), 1-2 (1), 0-2 (5).
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 0)
	}
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 2, 1)
	m.Set(2, 1, 1)
	m.Set(0, 2, 5)
	m.Set(2, 0, 5)
	ClassicalFW(m)
	if m.At(0, 2) != 2 || m.At(2, 0) != 2 {
		t.Errorf("d(0,2) = %v, want 2", m.At(0, 2))
	}
}

func TestClassicalFWHandlesNegativeEdges(t *testing.T) {
	// The kernel works on arbitrary (also asymmetric) matrices; negative
	// weights are allowed as long as no negative cycle exists. (In an
	// undirected graph any negative edge is a negative cycle, so the
	// asymmetric case is the only meaningful one.)
	// 0 →(-2)→ 1 →(3)→ 2, direct 0→2 is 4; shortest is 1.
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 0)
	}
	m.Set(0, 1, -2)
	m.Set(1, 2, 3)
	m.Set(0, 2, 4)
	ClassicalFW(m)
	if m.At(0, 2) != 1 {
		t.Errorf("d(0,2) = %v, want 1", m.At(0, 2))
	}
	if v := m.At(2, 0); !math.IsInf(v, 1) {
		t.Errorf("d(2,0) = %v, want Inf", v)
	}
}

func TestClassicalFWClampsDiagonal(t *testing.T) {
	m := NewMatrix(2, 2) // all Inf including diagonal
	m.Set(0, 1, 3)
	m.Set(1, 0, 3)
	ClassicalFW(m)
	if m.At(0, 0) != 0 || m.At(1, 1) != 0 {
		t.Error("diagonal not clamped to 0")
	}
	if m.At(0, 1) != 3 {
		t.Errorf("d(0,1) = %v", m.At(0, 1))
	}
}

// Property: BlockedFW equals ClassicalFW for every block size.
func TestBlockedFWMatchesClassical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(25)
		m := randomSymmetricDistance(n, rng)
		want := m.Clone()
		ClassicalFW(want)
		for _, b := range []int{1, 2, 3, 5, 7, n, n + 3} {
			got := m.Clone()
			BlockedFW(got, b)
			if !got.Equal(want) {
				t.Fatalf("n=%d b=%d: BlockedFW diverges from ClassicalFW", n, b)
			}
		}
	}
}

// randomSymmetricDistance builds a symmetric matrix with zero diagonal,
// positive weights and some Inf entries — a valid distance-matrix input.
func randomSymmetricDistance(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				w := 1 + math.Floor(rng.Float64()*9)
				m.Set(i, j, w)
				m.Set(j, i, w)
			}
		}
	}
	return m
}

// Property: FW output is idempotent (already closed) and satisfies the
// triangle inequality d(i,j) ≤ d(i,k) + d(k,j).
func TestQuickFWClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		m := randomSymmetricDistance(n, rng)
		ClassicalFW(m)
		again := m.Clone()
		ClassicalFW(again)
		if !again.Equal(m) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if m.At(i, k)+m.At(k, j) < m.At(i, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: FW is invariant under the pivot order — the fact the
// elimination-tree scheduling of the paper relies on. We check it by
// comparing FW on the matrix and FW on a symmetric permutation of it.
func TestQuickFWPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := randomSymmetricDistance(n, rng)
		perm := rng.Perm(n)
		pm := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				pm.Set(perm[i], perm[j], m.At(i, j))
			}
		}
		ClassicalFW(m)
		ClassicalFW(pm)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := m.At(i, j), pm.At(perm[i], perm[j])
				if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPanelUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := randomSymmetricDistance(6, rng)
	ClassicalFW(d)
	p := randomMatrix(4, 6, 0.3, rng)
	want := p.Clone()
	naiveMulAdd(want, p.Clone(), d)
	got := p.Clone()
	PanelUpdateLeft(got, d)
	if !got.Equal(want) {
		t.Error("PanelUpdateLeft diverges from naive P ⊕ P⊗D")
	}
	q := randomMatrix(6, 4, 0.3, rng)
	wantQ := q.Clone()
	naiveMulAdd(wantQ, d, q.Clone())
	gotQ := q.Clone()
	PanelUpdateRight(gotQ, d)
	if !gotQ.Equal(wantQ) {
		t.Error("PanelUpdateRight diverges from naive P ⊕ D⊗P")
	}
}

func TestMinInto(t *testing.T) {
	dst := []float64{3, 1, Inf}
	MinInto(dst, []float64{2, 5, 4})
	if dst[0] != 2 || dst[1] != 1 || dst[2] != 4 {
		t.Errorf("MinInto = %v", dst)
	}
}

func TestDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { MulAddInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2)) },
		func() { ClassicalFW(NewMatrix(2, 3)) },
		func() { BlockedFW(NewMatrix(3, 3), 0) },
		func() { FromSlice(2, 2, []float64{1}) },
		func() { NewMatrix(2, 2).CopyFrom(NewMatrix(3, 3)) },
		func() { MinInto([]float64{1}, []float64{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStringRendersInfAsDot(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 3)
	if s := m.String(); s != "3 .\n" {
		t.Errorf("String() = %q", s)
	}
}

// Property: MulAddInto never increases any entry of C (min-plus
// accumulation is monotone non-increasing).
func TestQuickMulAddMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomMatrix(r, k, 0.3, rng)
		b := randomMatrix(k, c, 0.3, rng)
		before := randomMatrix(r, c, 0.4, rng)
		after := before.Clone()
		MulAddInto(after, a, b)
		for i := range after.V {
			if after.V[i] > before.V[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: min-plus multiplication is associative on closed operands'
// results: (A⊗B)⊗C == A⊗(B⊗C) starting from all-Inf accumulators.
func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(n, n, 0.3, rng)
		b := randomMatrix(n, n, 0.3, rng)
		c := randomMatrix(n, n, 0.3, rng)
		ab := NewMatrix(n, n)
		MulAddInto(ab, a, b)
		abc1 := NewMatrix(n, n)
		MulAddInto(abc1, ab, c)
		bc := NewMatrix(n, n)
		MulAddInto(bc, b, c)
		abc2 := NewMatrix(n, n)
		MulAddInto(abc2, a, bc)
		return abc1.EqualTol(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatrixFillAndCopy(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Fill(7)
	for _, v := range m.V {
		if v != 7 {
			t.Fatalf("Fill left %v", v)
		}
	}
	src := NewMatrix(2, 3)
	src.Fill(3)
	m.CopyFrom(src)
	if m.At(1, 2) != 3 {
		t.Error("CopyFrom failed")
	}
}

func TestEqualVariants(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, Inf, 3})
	b := FromSlice(1, 3, []float64{1, Inf, 3})
	if !a.Equal(b) || !a.EqualTol(b, 0) {
		t.Error("identical matrices reported unequal")
	}
	c := FromSlice(1, 3, []float64{1, Inf, 3.0000001})
	if a.Equal(c) {
		t.Error("Equal ignored difference")
	}
	if !a.EqualTol(c, 1e-3) {
		t.Error("EqualTol rejected within-tolerance difference")
	}
	d := FromSlice(1, 3, []float64{1, 2, 3})
	if a.EqualTol(d, 1e9) {
		t.Error("EqualTol accepted Inf vs finite mismatch")
	}
	e := FromSlice(3, 1, []float64{1, Inf, 3})
	if a.Equal(e) || a.EqualTol(e, 1) {
		t.Error("shape mismatch reported equal")
	}
}

func TestNewMatrixRejectsNegativeDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dimensions")
		}
	}()
	NewMatrix(-1, 2)
}
