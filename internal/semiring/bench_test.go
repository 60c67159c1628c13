package semiring

import (
	"math/rand"
	"testing"
)

func benchMatrix(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.5 {
				m.Set(i, j, rng.Float64()*10)
			}
		}
	}
	return m
}

func BenchmarkMulAddInto(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := benchMatrix(n, rng)
			bm := benchMatrix(n, rng)
			c := NewMatrix(n, n)
			b.SetBytes(int64(n) * int64(n) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulAddInto(c, a, bm)
			}
		})
	}
}

// BenchmarkClassicalFW times the diagonal update on a symmetric
// non-negative block — what an undirected graph's R1 regions are — at
// the grid's block edges and the G(768,4/n) supernode: the general loop
// against the triangle path ClassicalFW takes once the proof holds, and
// that path split into two row bands (FWSplit), whose crossover sets
// BandMinN.
func BenchmarkClassicalFW(b *testing.B) {
	for _, n := range []int{8, 16, 32, 48, 64, 96, 128, 192, 210, 256, 384, 768} {
		rng := rand.New(rand.NewSource(2))
		src := benchMatrix(n, rng)
		mirrorLower(src)
		work := NewMatrix(n, n)
		for _, fw := range []struct {
			name string
			f    func(*Matrix) int64
		}{{"ref", classicalFWRef}, {"triangle", ClassicalFW}, {"bands2", func(m *Matrix) int64 { return classicalFWBands(m, 2) }}} {
			b.Run(fw.name+"/n="+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					work.CopyFrom(src)
					fw.f(work)
				}
			})
		}
	}
}

func BenchmarkBlockedFW(b *testing.B) {
	const n = 256
	for _, blk := range []int{32, 64, 128} {
		b.Run("b="+itoa(blk), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			src := benchMatrix(n, rng)
			work := NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(src)
				BlockedFW(work, blk)
			}
		})
	}
}

// benchKernels are the loops MulAddInto chooses between, and the
// dispatch itself.
var benchKernels = []struct {
	name string
	f    func(c, a, b *Matrix) int64
}{
	{"plain", mulAddPlain},
	{"tiled", func(c, a, b *Matrix) int64 { return mulAddTiled(c, a, b, tileK, tileJ) }},
	{"csr", func(c, a, b *Matrix) int64 { return IndexMatrix(a).MulAddInto(c, b) }},
	{"dispatch", MulAddInto},
}

// BenchmarkMinPlusKernels is the kernel-layer headline: the plain loop
// vs the tiled and CSR kernels vs the dispatch, on half-full square
// matrices from the dispatch's small-operand cutoff up to 1024×1024.
// Operation counts are asserted identical across kernels on every
// iteration, so the benchmark doubles as a large-shape regression
// check.
func BenchmarkMinPlusKernels(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 256, 1024} {
		rng := rand.New(rand.NewSource(5))
		a := benchMatrix(n, rng)
		bm := benchMatrix(n, rng)
		c := NewMatrix(n, n)
		want := mulAddPlain(c.Clone(), a, bm)
		for _, k := range benchKernels {
			b.Run(k.name+"/n="+itoa(n), func(b *testing.B) {
				b.SetBytes(8 * int64(n) * int64(n))
				for i := 0; i < b.N; i++ {
					if ops := k.f(c, a, bm); ops != want {
						b.Fatalf("%s ops=%d, plain=%d", k.name, ops, want)
					}
				}
			})
		}
	}
}

// BenchmarkMinPlusLowDensity is the CSR kernel's headline: min-plus on
// panels whose A operand is mostly Inf — the regime of early-level
// supernodal blocks, where the CSR index skips the Inf scanning the
// dense kernels repeat per tile. Operation counts are asserted
// identical, so the benchmark doubles as a regression check.
func BenchmarkMinPlusLowDensity(b *testing.B) {
	const n = 512
	for _, density := range []float64{0.01, 0.05, 0.25} {
		rng := rand.New(rand.NewSource(7))
		a := NewMatrix(n, n)
		for i := range a.V {
			if rng.Float64() < density {
				a.V[i] = rng.Float64() * 10
			}
		}
		bm := benchMatrix(n, rng)
		c := NewMatrix(n, n)
		want := mulAddPlain(c.Clone(), a, bm)
		for _, k := range benchKernels {
			b.Run(k.name+"/d="+itoa(int(density*100)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if ops := k.f(c, a, bm); ops != want {
						b.Fatalf("%s ops=%d, plain=%d", k.name, ops, want)
					}
				}
			})
		}
	}
}

// BenchmarkPack measures the packed wire encoder on the three block
// shapes it distinguishes: all-Inf (1 word), low-density (index+value
// pairs) and full (dense body).
func BenchmarkPack(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(8))
	blocks := map[string]*Matrix{
		"empty":  NewMatrix(n, n),
		"sparse": NewMatrix(n, n),
		"dense":  benchMatrix(n, rng),
	}
	for i := range blocks["sparse"].V {
		if rng.Float64() < 0.02 {
			blocks["sparse"].V[i] = rng.Float64() * 10
		}
	}
	for _, name := range []string{"empty", "sparse", "dense"} {
		m := blocks[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * int64(n) * int64(n))
			for i := 0; i < b.N; i++ {
				payload := PackMatrix(m)
				if got := UnpackMatrix(payload, n, n); got.Rows != n {
					b.Fatal("bad roundtrip")
				}
			}
		})
	}
}

// BenchmarkMinPlusTileSizes sweeps the tiled kernel's (k, j) tile shape
// on a half-full multiply at the bench grid's block edge and at
// 1024×1024 — the data behind the tileK×tileJ constants.
func BenchmarkMinPlusTileSizes(b *testing.B) {
	for _, n := range []int{210, 1024} {
		rng := rand.New(rand.NewSource(6))
		a := benchMatrix(n, rng)
		bm := benchMatrix(n, rng)
		c := NewMatrix(n, n)
		for _, tile := range [][2]int{{32, 256}, {64, 256}, {64, 512}, {128, 512}, {256, 1024}} {
			b.Run("n="+itoa(n)+"/tk="+itoa(tile[0])+"/tj="+itoa(tile[1]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mulAddTiled(c, a, bm, tile[0], tile[1])
				}
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
