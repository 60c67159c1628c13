package semiring

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// symmetricPivot returns an n×n block that is its own transpose bit for
// bit, with a +0 diagonal, finite entries of density about fill and
// every other entry Inf — the shape of an R2 pivot.
func symmetricPivot(n int, fill float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		m.Set(r, r, 0)
		for c := r + 1; c < n; c++ {
			if rng.Float64() < fill {
				v := float64(1 + rng.Intn(9))
				m.Set(r, c, v)
				m.Set(c, r, v)
			}
		}
	}
	return m
}

// TestPackPrunedTriangle pins the pivot encoding: a block that is its
// own transpose on S, the indices kept on both axes, with a +0 diagonal
// there, ships TriangleLen words under packTriangle and decodes to what
// the pruned rectangle decodes to, bit for bit; S empty ships pruned; and
// a non-zero or −0 diagonal entry, or an asymmetric pair, in S falls back
// to the pruned rectangle.
func TestPackPrunedTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	triangles := 0
	defer func() {
		if triangles == 0 {
			t.Error("no trial shipped a triangle: the test checks nothing")
		}
	}()
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(14)
		m := symmetricPivot(n, 0.2+0.8*rng.Float64(), rng)
		drop := []float64{0, 0.3, 0.6}[rng.Intn(3)]
		rows, cols := demandLists(n, drop, rng), demandLists(n, drop, rng)
		tri := PackPruned(m, rows, cols, true)
		keepR, keepC, _ := prunedKeep(m, rows, cols, true)
		_, s := symmetricCore(m, keepR, keepC)
		if tri[0] == packTriangle && (s == 0 || len(tri) != TriangleLen(len(keepR), len(keepC), s)) {
			t.Fatalf("trial %d: triangle of %d words, s = %d, want %d", trial, len(tri), s, TriangleLen(len(keepR), len(keepC), s))
		}
		if tri[0] == packPruned && s > 0 {
			t.Fatalf("trial %d: a symmetric core of %d shipped as a rectangle", trial, s)
		}
		if tri[0] == packTriangle {
			triangles++
		}
		if tri[0] != packTriangle && tri[0] != packPruned {
			continue // a classic encoding was shorter
		}
		// The rectangle the triangle replaces.
		rect := rectangleOf(m, keepR, keepC)
		if len(rect) < len(tri) {
			t.Fatalf("trial %d: triangle %d words, rectangle %d", trial, len(tri), len(rect))
		}
		got, want := UnpackMatrix(tri, n, n), UnpackMatrix(rect, n, n)
		if !bitIdentical(got, want) {
			t.Fatalf("trial %d: the triangle decodes to another block than the rectangle", trial)
		}
	}

	// Fallbacks: each breaks the core of a fully kept 4×4 pivot.
	base := symmetricPivot(4, 1, rand.New(rand.NewSource(1)))
	for name, edit := range map[string]func(m *Matrix){
		"non-zero diagonal":      func(m *Matrix) { m.Set(2, 2, 1) },
		"negative-zero diagonal": func(m *Matrix) { m.Set(1, 1, math.Copysign(0, -1)) },
		"asymmetric pair":        func(m *Matrix) { m.Set(0, 3, m.At(3, 0)+1) },
		"signed zeros mirrored":  func(m *Matrix) { m.Set(0, 1, 0); m.Set(1, 0, math.Copysign(0, -1)) },
	} {
		m := base.Clone()
		edit(m)
		p := PackPruned(m, nil, nil, true)
		if p[0] == packTriangle {
			t.Errorf("%s: shipped as a triangle", name)
		}
		got := UnpackMatrix(p, 4, 4)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if r == c && m.At(r, c) == 0 && math.IsInf(got.At(r, c), 1) {
					continue // a droppable zero diagonal entry
				}
				if math.Float64bits(got.At(r, c)) != math.Float64bits(m.At(r, c)) {
					t.Errorf("%s: (%d,%d) decodes to %v, want %v", name, r, c, got.At(r, c), m.At(r, c))
				}
			}
		}
	}

	// S empty: rows and columns kept on disjoint indices.
	m := symmetricPivot(6, 1, rand.New(rand.NewSource(2)))
	if p := PackPruned(m, []int32{0, 1, 2}, []int32{3, 4, 5}, true); p[0] != packPruned || len(p) != PrunedLen(3, 3) {
		t.Errorf("disjoint axes: tag %g, %d words, want the pruned rectangle of %d", p[0], len(p), PrunedLen(3, 3))
	}
	// Without the pivot flag a symmetric block ships as before.
	if p := PackPruned(m, []int32{0, 1}, nil, false); p[0] == packTriangle {
		t.Error("a non-pivot payload shipped as a triangle")
	}
}

// rectangleOf is the pruned layout of m's keepR × keepC rectangle.
func rectangleOf(m *Matrix, keepR, keepC []int32) []float64 {
	out := []float64{packPruned, float64(len(keepR)), float64(len(keepC))}
	for _, r := range keepR {
		out = append(out, float64(r))
	}
	for _, c := range keepC {
		out = append(out, float64(c))
	}
	for _, r := range keepR {
		for _, c := range keepC {
			out = append(out, m.At(int(r), int(c)))
		}
	}
	return out
}

// TestUpperTriangleFold: PackUpper ships UpperLen words, min-folding
// such vectors is min-folding the blocks, and MinIntoUpper folds the
// result into both halves exactly as MinInto folds the whole block.
func TestUpperTriangleFold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(9)
		a, b := symmetricPivot(n, 0.5, rng), symmetricPivot(n, 0.5, rng)
		ta, tb := PackUpper(a), PackUpper(b)
		if len(ta) != UpperLen(n) {
			t.Fatalf("n = %d: %d words, want %d", n, len(ta), UpperLen(n))
		}
		MinInto(ta, tb)
		dst, want := symmetricPivot(n, 0.3, rng), a.Clone()
		MinInto(want.V, b.V)
		ref := dst.Clone()
		MinInto(ref.V, want.V)
		MinIntoUpper(dst, ta)
		if !bitIdentical(dst, ref) {
			t.Fatalf("n = %d: the folded triangles differ from the folded blocks", n)
		}
	}
}

// triangleSeeds are pivot blocks for FuzzPackRoundTrip, as (bytes, n):
// a symmetric core with +0 and −0 off the diagonal, Inf entries, a −0 and
// a non-zero diagonal entry that must fall back to the rectangle.
func triangleSeeds() map[string][]byte {
	inf, nz := math.Inf(1), math.Copysign(0, -1)
	blocks := map[string][]float64{
		"core": {0, 2, inf, nz,
			2, 0, 5, inf,
			inf, 5, 0, 1,
			nz, inf, 1, 0},
		"negative-zero diagonal": {nz, 2, 3, 4,
			2, 0, 5, inf,
			3, 5, 0, 1,
			4, inf, 1, 0},
		"non-zero diagonal": {0, 2, 3, 4,
			2, 7, 5, inf,
			3, 5, 0, 1,
			4, inf, 1, 0},
		"inf row": {0, inf, 3, 4,
			inf, inf, inf, inf,
			3, inf, 0, 1,
			4, inf, 1, 0},
	}
	out := make(map[string][]byte)
	for name, v := range blocks {
		out[name] = triangleBytes(v)
	}
	return out
}

// triangleBytes encodes a payload as the fuzzers' byte stream.
func triangleBytes(payload []float64) []byte {
	var out []byte
	for _, v := range payload {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		out = append(out, b[:]...)
	}
	return out
}
