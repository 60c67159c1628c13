package semiring

import (
	"math"
	"math/rand"
	"testing"
)

func TestNNZ(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.NNZ() != 0 || !m.IsAllInf() {
		t.Fatalf("fresh matrix: NNZ=%d allInf=%v", m.NNZ(), m.IsAllInf())
	}
	m.Set(0, 0, 0)
	m.Set(2, 3, 1.5)
	m.Set(1, 2, math.Inf(-1)) // -Inf is a finite path weight, not the identity
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.IsAllInf() {
		t.Fatal("IsAllInf on a matrix with finite entries")
	}
	empty := NewMatrix(0, 7)
	if empty.NNZ() != 0 {
		t.Fatalf("0x7 matrix: NNZ=%d", empty.NNZ())
	}
}

// TestPackEmptyIsO1Words is the wire-format half of the "empty panels
// cost O(1) words" guarantee: an all-Inf block of any size encodes to
// a single word.
func TestPackEmptyIsO1Words(t *testing.T) {
	for _, n := range []int{0, 1, 64, 100 * 100} {
		p := Pack(make100Inf(n))
		if len(p) != 1 {
			t.Fatalf("Pack(all-Inf, n=%d) = %d words, want 1", n, len(p))
		}
		v := Unpack(p, n)
		for i, x := range v {
			if !math.IsInf(x, 1) {
				t.Fatalf("n=%d: Unpack[%d] = %g, want +Inf", n, i, x)
			}
		}
	}
}

func make100Inf(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = Inf
	}
	return v
}

// TestPackChoosesSmallestEncoding pins the encoding selection: sparse
// pairs when 2+2·nnz beats 1+n, dense otherwise, and PackedLen always
// agrees with len(Pack(v)).
func TestPackChoosesSmallestEncoding(t *testing.T) {
	n := 100
	v := make100Inf(n)
	v[17] = 3.5
	v[80] = 0
	if p := Pack(v); len(p) != 2+2*2 || p[0] != packSparse {
		t.Fatalf("nnz=2: got %d words, tag %g", len(p), p[0])
	}
	for i := range v {
		v[i] = float64(i)
	}
	if p := Pack(v); len(p) != 1+n || p[0] != packDense {
		t.Fatalf("full: got %d words, tag %g", len(p), p[0])
	}
	// Exactly at the break-even point (2+2·nnz == 1+n is impossible for
	// even n; check the neighbourhood).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(90)
		v := make100Inf(n)
		for i := range v {
			if rng.Float64() < rng.Float64() {
				v[i] = rng.Float64()
			}
		}
		p := Pack(v)
		if got := PackedLen(v); got != len(p) {
			t.Fatalf("PackedLen=%d, len(Pack)=%d", got, len(p))
		}
		nnz := 0
		for _, x := range v {
			if !math.IsInf(x, 1) {
				nnz++
			}
		}
		want := 1
		if nnz > 0 {
			want = 1 + n
			if s := 2 + 2*nnz; s < want {
				want = s
			}
		}
		if len(p) != want {
			t.Fatalf("n=%d nnz=%d: %d words, want %d", n, nnz, len(p), want)
		}
		got := Unpack(p, n)
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("roundtrip differs at %d: %g vs %g", i, got[i], v[i])
			}
		}
	}
}

func TestPackMatrixRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		m := randKernelMatrix(rng.Intn(20), rng.Intn(20), rng.Float64(), rng)
		got := UnpackMatrix(PackMatrix(m), m.Rows, m.Cols)
		if !bitIdentical(m, got) {
			t.Fatalf("trial %d: roundtrip differs for %dx%d", trial, m.Rows, m.Cols)
		}
	}
}

func TestUnpackRejectsMalformed(t *testing.T) {
	for _, bad := range [][]float64{
		{},                    // no tag
		{packEmpty, 1},        // trailing words after empty
		{packDense, 1, 2},     // wrong dense length for n=4
		{packSparse, 2, 0, 1}, // truncated pairs
		{packSparse, 1, 9, 1}, // index out of range for n=4
		{7},                   // unknown tag
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Unpack(%v, 4): expected panic", bad)
				}
			}()
			Unpack(bad, 4)
		}()
	}
}

// TestSparseIndexMulMatchesSerial locks the CSR kernel to the plain
// reference loop: bit-identical results and identical operation counts,
// through the dispatch and through an index built directly, across
// densities that land on both sides of the dispatch threshold.
func TestSparseIndexMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{{0, 0, 0}, {1, 1, 1}, {5, 0, 3}, {33, 17, 29}, {64, 64, 64}}
	for _, sh := range shapes {
		r, k, c := sh[0], sh[1], sh[2]
		for _, infFrac := range []float64{0, 0.2, 0.6, 0.95, 1} {
			a := randKernelMatrix(r, k, infFrac, rng)
			b := randKernelMatrix(k, c, infFrac, rng)
			cInit := randKernelMatrix(r, c, 0.5, rng)
			want := cInit.Clone()
			wantOps := mulAddPlain(want, a, b)

			got := cInit.Clone()
			if ops := MulAddInto(got, a, b); ops != wantOps || !bitIdentical(got, want) {
				t.Fatalf("MulAddInto %v infFrac=%g: ops=%d want %d", sh, infFrac, ops, wantOps)
			}
			ix := IndexMatrix(a)
			if ix.NNZ() != a.NNZ() {
				t.Fatalf("index NNZ=%d, matrix NNZ=%d", ix.NNZ(), a.NNZ())
			}
			got2 := cInit.Clone()
			if ops := ix.MulAddInto(got2, b); ops != wantOps || !bitIdentical(got2, want) {
				t.Fatalf("SparseIndex.MulAddInto %v infFrac=%g: ops=%d want %d", sh, infFrac, ops, wantOps)
			}
		}
	}
}

// TestIndexIfSparseThreshold puts the left operand on either side of
// SparseDensityThreshold — near-empty and full, then exactly one finite
// entry short of half full (CSR index) and exactly half full (tiled
// kernel) — and checks the dispatch agrees with the reference on both
// sides of the boundary.
func TestIndexIfSparseThreshold(t *testing.T) {
	dense := NewMatrix(8, 8)
	dense.Fill(1)
	if IndexIfSparse(dense) != nil {
		t.Fatal("full matrix should not be indexed")
	}
	sparse := NewMatrix(8, 8)
	sparse.Set(3, 4, 1)
	if IndexIfSparse(sparse) == nil {
		t.Fatal("near-empty matrix should be indexed")
	}
	if IndexIfSparse(NewMatrix(0, 5)) == nil {
		t.Fatal("0-row matrix should be indexed (trivially sparse)")
	}
	rng := rand.New(rand.NewSource(9))
	const r, k, c = 20, 30, 40
	b := randKernelMatrix(k, c, 0.2, rng)
	cInit := randKernelMatrix(r, c, 0.5, rng)
	for _, tc := range []struct {
		finite int
		csr    bool
	}{{r*k/2 - 1, true}, {r * k / 2, false}} {
		a := NewMatrix(r, k)
		for _, at := range rng.Perm(r * k)[:tc.finite] {
			a.V[at] = rng.Float64() * 16
		}
		if got := IndexIfSparse(a) != nil; got != tc.csr {
			t.Fatalf("%d of %d finite: indexed=%v, want %v", tc.finite, r*k, got, tc.csr)
		}
		want, got := cInit.Clone(), cInit.Clone()
		if wantOps, ops := mulAddPlain(want, a, b), MulAddInto(got, a, b); ops != wantOps || !bitIdentical(got, want) {
			t.Fatalf("%d of %d finite: dispatch diverges from reference (ops %d vs %d)", tc.finite, r*k, ops, wantOps)
		}
	}
}
