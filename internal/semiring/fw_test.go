package semiring

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// checkClassicalFW runs m through ClassicalFW and through the general
// loop and requires the same bits and the same charged count. It first
// checks that the proof answers wantProven — which path ClassicalFW
// takes for n ≥ triangleMinN — and, where it holds, also runs the
// triangle path directly, in one band and split into two and three, so
// sizes under triangleMinN are covered too.
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
		for bands := 2; bands <= min(3, m.Rows); bands++ {
			split := m.Clone()
			if ops := runSplit(newFWSplit(split, bands), bands); ops != wantOps || !bitIdentical(split, want) {
				t.Fatalf("n=%d, %d bands: ops=%d, reference %d; bits equal: %v", m.Rows, bands, ops, wantOps, bitIdentical(split, want))
			}
		}
	}
}

// classicalFWBands runs m as an FWSplit in the given number of bands,
// or, where NewFWSplit refuses it, as ClassicalFW.
func classicalFWBands(m *Matrix, bands int) int64 {
	if s := NewFWSplit(m, bands); s != nil {
		return runSplit(s, bands)
	}
	return ClassicalFW(m)
}

// runSplit runs s with bands−1 helpers on goroutines of their own, each
// joining whenever the scheduler starts it, as an executor's idle worker
// does.
func runSplit(s *FWSplit, bands int) int64 {
	var wg sync.WaitGroup
	for h := 1; h < bands; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Help()
		}()
	}
	defer wg.Wait()
	return s.Run()
}

// TestFWSplit holds the split to the sequential triangle at the sizes
// the executor splits — the served gnp root block's among them — in up
// to five bands, with a helper that joins halfway through, and with
// helpers that come after every band is held or the split is over; and
// it checks that the bands cover every row once, each about an equal
// share of the triangle.
func TestFWSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	real := func() float64 { return 0.1 + rng.Float64()*10 }
	for _, n := range []int{BandMinN, BandMinN + 3, 768} {
		m := symmetricMatrix(n, 1-4/float64(n), real, rng)
		want := m.Clone()
		wantOps := ClassicalFW(want)
		for _, bands := range []int{1, 2, 3, 5} {
			got := m.Clone()
			if ops := classicalFWBands(got, bands); ops != wantOps || !bitIdentical(got, want) {
				t.Errorf("n=%d, %d bands: ops=%d, sequential %d; bits equal: %v", n, bands, ops, wantOps, bitIdentical(got, want))
			}
		}
		got := m.Clone()
		s := NewFWSplit(got, 2)
		ops := make(chan int64)
		go func() { ops <- s.Run() }()
		for int(s.bands[1].folded.Load()) < s.groups/2 {
			runtime.Gosched()
		}
		if !s.Help() || s.Help() {
			t.Errorf("n=%d: a late helper did not take the one free band, or a second one took a band", n)
		}
		if op := <-ops; op != wantOps || !bitIdentical(got, want) {
			t.Errorf("n=%d, helper from group %d of %d: ops=%d, sequential %d; bits equal: %v",
				n, s.groups/2, s.groups, op, wantOps, bitIdentical(got, want))
		}
		if s.Open() || s.Help() {
			t.Errorf("n=%d: a finished split still takes helpers", n)
		}
	}
	for _, n := range []int{1, 7, 100, 768} {
		for bands := 1; bands <= min(n, 8); bands++ {
			bounds := areaBands(n, bands)
			if bounds[0] != 0 || bounds[bands] != n {
				t.Fatalf("n=%d, %d bands: bounds %v do not span the rows", n, bands, bounds)
			}
			total := n * (n + 1) / 2
			for b := 0; b < bands; b++ {
				lo, hi := bounds[b], bounds[b+1]
				area := (hi*(hi+1) - lo*(lo+1)) / 2
				if lo > hi || area > total/bands+hi {
					t.Errorf("n=%d, %d bands: band %d is rows [%d, %d), area %d of %d", n, bands, b, lo, hi, area, total)
				}
			}
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
// then requires ClassicalFW to match the general loop bit for bit, and
// an FWSplit in one to three bands to match ClassicalFW. Where the proof
// holds it also runs the split directly at every size, against the
// sequential triangle.
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
		bands := 1 + int(data[1]>>1)%3
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
		split := m.Clone()
		if ops := classicalFWBands(split, bands); ops != wantOps || !bitIdentical(split, want) {
			t.Fatalf("n=%d mirror=%v, %d bands: ops=%d, reference %d\ninput\n%v", n, mirror, bands, ops, wantOps, m)
		}
		if n > 0 && symmetricNonNegative(m) {
			tri, split := m.Clone(), m.Clone()
			triOps := classicalFWTriangle(tri)
			if ops := runSplit(newFWSplit(split, bands), bands); ops != triOps || !bitIdentical(split, tri) {
				t.Fatalf("n=%d, %d bands: ops=%d, sequential triangle %d\ninput\n%v", n, bands, ops, triOps, m)
			}
		}
	})
}
