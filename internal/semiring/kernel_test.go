package semiring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// randKernelMatrix builds an r×c matrix with the given Inf density;
// finite entries are small nonnegative floats like edge weights.
func randKernelMatrix(r, c int, infFrac float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.V {
		if rng.Float64() >= infFrac {
			m.V[i] = rng.Float64() * 16
		}
	}
	return m
}

// bitIdentical reports whether two matrices match bit for bit (stricter
// than Equal: distinguishes -0 from +0 and compares NaN payloads).
func bitIdentical(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// TestKernelsMatchSerial is the contract of the kernel layer: the
// dispatch MulAddInto, and each kernel it can pick — the tiled one at
// tile sizes small enough that boundaries land inside the shapes, the
// CSR index — produce bit-identical output and identical operation
// counts to the plain reference loop, across (rows, cols, density),
// Inf-padded rows and degenerate (0-row / 0-col) matrices.
func TestKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{0, 0, 0}, {0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {1, 1, 1},
		{16, 16, 16}, {16, 16, 17}, // either side of plainLoopMaxOps
		{3, 300, 70}, {70, 3, 300}, {300, 70, 3},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [3]int{rng.Intn(70), rng.Intn(70), rng.Intn(70)})
	}
	for _, sh := range shapes {
		r, k, c := sh[0], sh[1], sh[2]
		for _, infFrac := range []float64{0, 0.3, 0.45, 0.55, 0.9, 1} {
			a := randKernelMatrix(r, k, infFrac, rng)
			b := randKernelMatrix(k, c, infFrac, rng)
			// Inf-pad a few whole rows of A: the reference loop's
			// empty-row skip must be reproduced op-for-op.
			for i := 0; i < r; i++ {
				if rng.Intn(4) == 0 {
					for j := 0; j < k; j++ {
						a.Set(i, j, Inf)
					}
				}
			}
			cInit := randKernelMatrix(r, c, 0.5, rng)
			want := cInit.Clone()
			wantOps := mulAddPlain(want, a, b)
			if wantOps != int64(a.NNZ())*int64(c) {
				t.Fatalf("%dx%dx%d: reference charged %d, formula %d", r, k, c, wantOps, int64(a.NNZ())*int64(c))
			}
			for _, kern := range []struct {
				name string
				f    func(c, a, b *Matrix) int64
			}{
				{"dispatch", MulAddInto},
				{"tiled", func(c, a, b *Matrix) int64 { return mulAddTiled(c, a, b, 8, 16) }},
				{"csr", func(c, a, b *Matrix) int64 { return IndexMatrix(a).MulAddInto(c, b) }},
			} {
				got := cInit.Clone()
				gotOps := kern.f(got, a, b)
				if gotOps != wantOps {
					t.Fatalf("%s kernel %dx%dx%d infFrac=%g: ops=%d, reference=%d",
						kern.name, r, k, c, infFrac, gotOps, wantOps)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("%s kernel %dx%dx%d infFrac=%g: result differs from reference",
						kern.name, r, k, c, infFrac)
				}
			}
		}
	}
}

// TestKernelClassicalFWMatchesSerial locks ClassicalFW to the general
// loop on random matrices large enough for several pivot quads, both
// as drawn (asymmetric: the proof fails) and symmetrized (it holds).
// TestClassicalFWMatchesReference has the edge cases.
func TestKernelClassicalFWMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 17, 64, 200} {
		m := randKernelMatrix(n, n, 0.6, rng)
		checkClassicalFW(t, m, n < triangleMinN)
		mirrorLower(m)
		checkClassicalFW(t, m, true)
	}
}

// TestKernelBlockedFWMatchesSerial pins the full blocked algorithm —
// diagonal, panels and outer products through the dispatch — to the
// operation counts and result bits the serial kernel of the commit
// before the dispatch gave, on a real-valued matrix as drawn and
// symmetrized, across block sizes that do and don't divide n.
func TestKernelBlockedFWMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 75
	m := randKernelMatrix(n, n, 0.7, rng)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
	}
	sym := m.Clone()
	mirrorLower(sym)
	for _, tc := range []struct {
		name string
		m    *Matrix
		b    int
		ops  int64
		hash uint64
	}{
		{"asym", m, 16, 408702, 0x606acf95860780b4},
		{"asym", m, 25, 397150, 0x362a5f29dd0be781},
		{"asym", m, 80, 398550, 0x9a5207094612aae1},
		{"sym", sym, 16, 409907, 0xaa933f2f8a91158d},
		{"sym", sym, 25, 397325, 0xfeba3a5e1534159},
		{"sym", sym, 80, 398400, 0x854c6abfb4e3be9},
	} {
		got := tc.m.Clone()
		if ops := BlockedFW(got, tc.b); ops != tc.ops || hashBits(got) != tc.hash {
			t.Errorf("%s b=%d: ops=%d hash=%#x, pinned %d / %#x", tc.name, tc.b, ops, hashBits(got), tc.ops, tc.hash)
		}
	}
}

// BlockedFW runs the blocked Floyd–Warshall algorithm of Section 3.3 on
// the square matrix m in place with block size b: for each block pivot
// k — diagonal update, panel updates, then the min-plus outer product.
// It drives every kernel the solvers use in one loop, which is what
// TestKernelBlockedFWMatchesSerial pins.
func BlockedFW(m *Matrix, b int) int64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("semiring: BlockedFW on %dx%d matrix", m.Rows, m.Cols))
	}
	if b <= 0 {
		panic("semiring: BlockedFW block size must be positive")
	}
	n := m.Rows
	nb := (n + b - 1) / b
	var ops int64
	// view extracts block (bi, bj) as a copy.
	view := func(bi, bj int) *Matrix {
		r0, r1 := bi*b, min(n, (bi+1)*b)
		c0, c1 := bj*b, min(n, (bj+1)*b)
		blk := NewMatrix(r1-r0, c1-c0)
		for r := r0; r < r1; r++ {
			copy(blk.V[(r-r0)*blk.Cols:(r-r0+1)*blk.Cols], m.V[r*n+c0:r*n+c1])
		}
		return blk
	}
	store := func(bi, bj int, blk *Matrix) {
		r0 := bi * b
		c0 := bj * b
		for r := 0; r < blk.Rows; r++ {
			copy(m.V[(r0+r)*n+c0:(r0+r)*n+c0+blk.Cols], blk.V[r*blk.Cols:(r+1)*blk.Cols])
		}
	}
	for k := 0; k < nb; k++ {
		dk := view(k, k)
		ops += ClassicalFW(dk)
		store(k, k, dk)
		panelsCol := make([]*Matrix, nb)
		panelsRow := make([]*Matrix, nb)
		for i := 0; i < nb; i++ {
			if i == k {
				continue
			}
			pc := view(i, k)
			ops += PanelUpdateLeft(pc, dk)
			store(i, k, pc)
			panelsCol[i] = pc
			pr := view(k, i)
			ops += PanelUpdateRight(pr, dk)
			store(k, i, pr)
			panelsRow[i] = pr
		}
		for i := 0; i < nb; i++ {
			if i == k {
				continue
			}
			for j := 0; j < nb; j++ {
				if j == k {
					continue
				}
				blk := view(i, j)
				ops += MulAddInto(blk, panelsCol[i], panelsRow[j])
				store(i, j, blk)
			}
		}
	}
	return ops
}

func hashBits(m *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range m.V {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPanelUpdatesMatchSerial covers the panel-update wrappers: each is
// the reference multiply of a snapshot of the panel.
func TestPanelUpdatesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pL := randKernelMatrix(40, 13, 0.4, rng) // column panel: r×k
	pR := randKernelMatrix(13, 40, 0.4, rng) // row panel: k×c
	d := randKernelMatrix(13, 13, 0.4, rng)
	ClassicalFW(d)
	wantL := pL.Clone()
	wantLOps := mulAddPlain(wantL, pL, d)
	wantR := pR.Clone()
	wantROps := mulAddPlain(wantR, d, pR)
	gotL := pL.Clone()
	if ops := PanelUpdateLeft(gotL, d); ops != wantLOps || !bitIdentical(gotL, wantL) {
		t.Fatalf("PanelUpdateLeft mismatch (ops=%d want %d)", ops, wantLOps)
	}
	gotR := pR.Clone()
	if ops := PanelUpdateRight(gotR, d); ops != wantROps || !bitIdentical(gotR, wantR) {
		t.Fatalf("PanelUpdateRight mismatch (ops=%d want %d)", ops, wantROps)
	}
}

// TestPoolForEachCoversAllIndices exercises the pool under nesting (a
// pooled call inside a pooled call must not deadlock) and checks every
// index runs exactly once.
func TestPoolForEachCoversAllIndices(t *testing.T) {
	p := NewPool(3)
	outer := make([]int32, 50)
	p.ForEach(len(outer), func(i int) {
		inner := make([]int32, 20)
		p.ForEach(len(inner), func(j int) { inner[j]++ })
		for j, v := range inner {
			if v != 1 {
				t.Errorf("nested index %d ran %d times", j, v)
			}
		}
		outer[i]++
	})
	for i, v := range outer {
		if v != 1 {
			t.Errorf("index %d ran %d times", i, v)
		}
	}
}
