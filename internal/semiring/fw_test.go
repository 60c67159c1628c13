package semiring

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkClassicalFW runs m through ClassicalFW and through the general
// loop and requires the same bits and the same charged count. It first
// checks that the proof answers wantProven — which path ClassicalFW
// takes for n ≥ triangleMinN — and, where it holds, also runs the
// triangle path directly so sizes under triangleMinN are covered too.
func checkClassicalFW(t *testing.T, m *Matrix, wantProven bool) {
	t.Helper()
	if got := symmetricNonNegative(m); got != wantProven {
		t.Fatalf("n=%d: symmetricNonNegative = %v, want %v\n%v", m.Rows, got, wantProven, m)
	}
	want := m.Clone()
	wantOps := classicalFWRef(want)
	got := m.Clone()
	if ops := ClassicalFW(got); ops != wantOps || !bitIdentical(got, want) {
		t.Fatalf("n=%d: ClassicalFW ops=%d, reference %d; bits equal: %v", m.Rows, ops, wantOps, bitIdentical(got, want))
	}
	if wantProven {
		tri := m.Clone()
		if ops := classicalFWTriangle(tri); ops != wantOps || !bitIdentical(tri, want) {
			t.Fatalf("n=%d: triangle path ops=%d, reference %d; bits equal: %v", m.Rows, ops, wantOps, bitIdentical(tri, want))
		}
	}
}

// symmetricMatrix draws an n×n matrix with bit-equal mirror pairs, a
// zero diagonal, the given fraction of Inf pairs and weights from w.
func symmetricMatrix(n int, infFrac float64, w func() float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := 0; j < i; j++ {
			if rng.Float64() >= infFrac {
				v := w()
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
	}
	return m
}

// TestClassicalFWMatchesReference is the triangle path's contract: on
// every input the proof accepts — integer, real-valued and zero
// weights, components joined by nothing but Inf, every size through
// the pivot-quad remainders — bits and charged count equal the general
// loop's; and every input that must fail the proof does fail it, takes
// the general loop and so matches it trivially.
func TestClassicalFWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	integer := func() float64 { return float64(1 + rng.Intn(9)) }
	real := func() float64 { return 0.1 + rng.Float64()*10 }
	zeroOne := func() float64 { return float64(rng.Intn(2)) }
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 31, 32, 33, 63, 64, 65}
	for _, w := range []struct {
		name string
		draw func() float64
	}{{"integer", integer}, {"real", real}, {"zero-weight", zeroOne}} {
		t.Run(w.name, func(t *testing.T) {
			for _, n := range sizes {
				for _, infFrac := range []float64{0, 0.5, 0.9} {
					checkClassicalFW(t, symmetricMatrix(n, infFrac, w.draw, rng), true)
				}
			}
		})
	}
	t.Run("islands", func(t *testing.T) {
		// Three components: every cross entry stays Inf, and the
		// charged count must skip exactly those (pivot, row) pairs.
		for _, n := range sizes {
			m := symmetricMatrix(n, 0.3, real, rng)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i%3 != j%3 {
						m.Set(i, j, Inf)
					}
				}
			}
			checkClassicalFW(t, m, true)
		}
	})
	t.Run("unset diagonal", func(t *testing.T) {
		// A block whose diagonal was never initialized (Inf) or holds
		// a positive value is clamped to 0 by both paths.
		m := symmetricMatrix(13, 0.4, integer, rng)
		for i := 0; i < 13; i++ {
			m.Set(i, i, []float64{Inf, 3, 0}[i%3])
		}
		checkClassicalFW(t, m, true)
	})

	// Inputs that must fail the proof: each breaks one clause in one
	// place of an otherwise provable matrix.
	negZero := math.Copysign(0, -1)
	for _, bad := range []struct {
		name    string
		breakIt func(m *Matrix)
	}{
		{"one ulp", func(m *Matrix) { m.Set(2, 9, math.Nextafter(m.At(9, 2), Inf)) }},
		{"+0 vs -0", func(m *Matrix) { m.Set(9, 2, 0); m.Set(2, 9, negZero) }},
		{"-0 pair", func(m *Matrix) { m.Set(9, 2, negZero); m.Set(2, 9, negZero) }},
		{"NaN", func(m *Matrix) { m.Set(9, 2, math.NaN()); m.Set(2, 9, math.NaN()) }},
		{"negative entry", func(m *Matrix) { m.Set(9, 2, -1); m.Set(2, 9, -1) }},
		{"negative diagonal", func(m *Matrix) { m.Set(5, 5, -2) }},
		{"-Inf", func(m *Matrix) { m.Set(9, 2, math.Inf(-1)); m.Set(2, 9, math.Inf(-1)) }},
		{"asymmetric", func(m *Matrix) { m.Set(9, 2, 1); m.Set(2, 9, 2) }},
	} {
		t.Run(bad.name, func(t *testing.T) {
			for _, n := range []int{10, 12, 13, 33} {
				m := symmetricMatrix(n, 0, real, rng)
				bad.breakIt(m)
				checkClassicalFW(t, m, false)
			}
		})
	}
}

// FuzzClassicalFW decodes the input into a small matrix of values drawn
// from a palette that includes every class the proof must reject, and
// mirrors it unless told not to — so the fuzzer reaches both paths —
// then requires ClassicalFW to match the general loop bit for bit.
func FuzzClassicalFW(f *testing.F) {
	f.Add([]byte{9, 1, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{12, 1, 0, 0, 7, 7, 7, 1, 2, 7, 3, 0, 0, 1})
	f.Add([]byte{8, 0, 1, 2, 3, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{17, 1, 200, 100, 50, 25, 12, 6, 3, 1})
	palette := []float64{
		0, 1, 2, 3, 5, 0.1, 0.7, Inf, Inf, Inf,
		math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1), 1e300, 5e-324,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 24
		mirror := data[1]%2 == 1
		data = data[2:]
		value := func(at int) float64 {
			if len(data) == 0 {
				return Inf
			}
			b := data[at%len(data)]
			if b >= 128 { // an arbitrary bit pattern seeded by the input
				var w [8]byte
				for i := range w {
					w[i] = data[(at+i)%len(data)]
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
			return palette[int(b)%len(palette)]
		}
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, value(i*n+j))
			}
		}
		if mirror {
			mirrorLower(m)
		}
		want := m.Clone()
		wantOps := classicalFWRef(want)
		got := m.Clone()
		if ops := ClassicalFW(got); ops != wantOps || !bitIdentical(got, want) {
			t.Fatalf("n=%d mirror=%v proven=%v: ops=%d, reference %d\ninput\n%v", n, mirror, symmetricNonNegative(m), ops, wantOps, m)
		}
	})
}
