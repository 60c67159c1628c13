package oracle

import (
	"math"
	"math/rand"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// tierWorkloads builds the five standard graph families with small
// integer weights, so every distance is a small integer and the store
// must land in the uN its largest one needs.
func tierWorkloads(n int) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(11))
	w := func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return map[string]*graph.Graph{
		"star": graph.Star(n, w),
		"tree": graph.RandomTree(n, w, rng),
		"grid": graph.Grid2D(side, side, w),
		"path": graph.Path(n, w),
		"gnp":  graph.RandomGNP(n, 4.0/float64(n), w, rng),
	}
}

func distOf(vals []float64, n int) *semiring.Matrix {
	return semiring.FromSlice(n, n, vals)
}

// TestCompressDistKinds pins the representation chosen for each value
// shape and proves bit-exact round trips through every tier kind.
func TestCompressDistKinds(t *testing.T) {
	inf := semiring.Inf
	cases := []struct {
		name string
		vals []float64
		kind string
	}{
		{"small integer distances", []float64{0, 3, 254, inf}, "u8"},
		{"uniform fractional scale", []float64{0, 0.25, 1.5, inf}, "u3"},
		{"integer distances", []float64{0, 3, 255, inf}, "u9"},
		{"a longer fractional scale", []float64{0, 0.25, 64, inf}, "u9"},
		{"wide integers", []float64{0, 70000, 1e9, inf}, "u30"},
		// 2.5/1.5 is not an integer, so quantization fails; both values
		// survive a float32 round trip.
		{"f32-exact reals", []float64{0, 1.5, 2.5, inf}, "f32"},
		// 3·0.1 != 0.3 in float64 (and 0.1 is not float32-exact), so
		// nothing short of raw bits is lossless.
		{"f64-only reals", []float64{0, 0.1, 0.3, inf}, "f64"},
	}
	for _, tc := range cases {
		d := distOf(tc.vals, 2)
		blob := CompressDist(d)
		s, err := decodeStore(blob)
		if err != nil {
			t.Fatalf("%s: decodeStore: %v", tc.name, err)
		}
		if kind, n := s.kindName(), s.n; kind != tc.kind || n != 2 {
			t.Errorf("%s: compressed as %s/n=%d, want %s/n=2", tc.name, kind, n, tc.kind)
		}
		got, err := DecompressDist(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", tc.name, err)
		}
		for i, v := range tc.vals {
			if math.Float64bits(got.V[i]) != math.Float64bits(v) {
				t.Errorf("%s: value %d decoded to %v, want %v bit-exactly", tc.name, i, got.V[i], v)
			}
		}
	}
}

// TestCompressDistGraphFamilies runs the codec over real solved
// distance matrices: integer-weight graphs must land in the triangle at
// the width their largest distance needs and decode bit-identically,
// which is what puts an oracle at n(n+1)/2 distances of N bits — in
// memory or serialised — plus Successors.Bytes(), whose columns follow
// each vertex's degree.
func TestCompressDistGraphFamilies(t *testing.T) {
	for name, g := range tierWorkloads(40) {
		res, err := succSolve(g)
		if err != nil {
			t.Fatal(err)
		}
		blob := CompressDist(res.Dist)
		s, err := decodeStore(blob)
		if err != nil {
			t.Fatal(err)
		}
		kind, want := s.kindName(), quantKind(res.Dist, 1)
		if kind != want {
			t.Errorf("%s: integer-weight distances compressed as %s, want %s", name, kind, want)
		}
		got, err := DecompressDist(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		for i, v := range res.Dist.V {
			if math.Float64bits(got.V[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d decoded to %v, want %v bit-exactly", name, i, got.V[i], v)
			}
		}
		o, tri := FromResult(res, nil), distBytes(g.N(), want, false)
		if all, dist := o.MemoryBytes(), o.dist.bytes(); all != hotBytes(g, want) || dist != tri {
			t.Errorf("%s: oracle holds %d bytes, %d of them distances, want %d and %d", name, all, dist, hotBytes(g, want), tri)
		}
		if got, want := int64(len(blob)), tierHeaderLen+tri; got != want {
			t.Errorf("%s: serialised to %d bytes, want %d", name, got, want)
		}
	}
}

// TestDecompressMalformed drives the store decoder over truncations and
// header corruptions of a blob in each layout: decode-or-error, never
// panic. The retired SAPSPT03 magic — a stale blob's kind byte would
// name a different width — a layout byte past the two defined, a code
// width outside 1..32 and a set bit after the last entry are errors like
// any other.
func TestDecompressMalformed(t *testing.T) {
	// 12 vertices, so the two layouts' 78 and 144 entries fill different
	// numbers of words at any width; both end mid-word, at 5 and 6 bits.
	const n = 12
	square, tri := semiring.NewMatrix(n, n), semiring.NewMatrix(n, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			square.Set(u, v, float64(2*u+v))
			tri.Set(u, v, float64(3*max(u-v, v-u)))
		}
	}
	square.Set(0, n-1, semiring.Inf)
	tri.Set(0, n-1, semiring.Inf)
	tri.Set(n-1, 0, semiring.Inf)
	for layout, d := range map[string]*semiring.Matrix{"square": square, "tri": tri} {
		blob := CompressDist(d)
		if s, _, err := tierSplit(blob); err != nil || s.layoutName() != layout || storeLen(n, s.tri)*int(s.width)%64 == 0 {
			t.Fatalf("%s seed blob: %+v, err %v; want that layout, ending mid-word", layout, s, err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if _, err := DecompressDist(blob[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d bytes decoded without error", layout, cut)
			}
		}
		if _, err := DecompressDist(append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatalf("%s: trailing byte decoded without error", layout)
		}
		for what, corrupt := range map[string]func(b []byte){
			"the SAPSPT03 magic": func(b []byte) { b[7] = '3' },
			"kind byte 3":        func(b []byte) { b[8] = 3 },
			"layout byte 2":      func(b []byte) { b[9] = 2 },
			"width byte 0":       func(b []byte) { b[10] = 0 },
			"width byte 33":      func(b []byte) { b[10] = 33 },
			"the f64 kind":       func(b []byte) { b[8] = tierF64 }, // a width and a scale it cannot carry
			"the reserved byte":  func(b []byte) { b[11] = 1 },
			"the other layout":   func(b []byte) { b[9] ^= 1 }, // same payload, wrong length for it
			"a padding bit":      func(b []byte) { b[len(b)-1] |= 0x80 },
		} {
			mut := append([]byte(nil), blob...)
			corrupt(mut)
			if _, err := DecompressDist(mut); err == nil {
				t.Errorf("%s blob with %s decoded without error", layout, what)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 2000; trial++ {
			mut := append([]byte(nil), blob...)
			for flips := 1 + rng.Intn(4); flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			m, err := DecompressDist(mut) // must not panic; errors are fine
			if err == nil && (m == nil || m.Rows != m.Cols) {
				t.Fatalf("%s trial %d: decode returned malformed matrix", layout, trial)
			}
		}
	}
}
