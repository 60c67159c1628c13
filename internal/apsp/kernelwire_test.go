package apsp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// identicalMatrices compares bit for bit: the kernel contract is
// stronger than EqualTol.
func identicalMatrices(a, b *semiring.Matrix) bool {
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

// TestDistributedSolversKernelInvariant is the wiring contract: the
// kernel choice must change nothing observable about a distributed run
// — distances bit for bit, and the whole simulated cost report
// (critical path, per-rank counters, peak memory), since the flop
// clock charges identical operation counts. This is what keeps the
// experiment tables byte-identical across kernels.
func TestDistributedSolversKernelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Grid2D(14, 14, graph.RandomWeights(rng, 1, 10))
	const p = 9

	base, err := SparseAPSPWith(g, p, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []semiring.Kernel{semiring.KernelTiled, semiring.KernelPooled, semiring.KernelSparse} {
		res, err := SparseAPSPWith(g, p, SparseOptions{Seed: 3, Kernel: kern})
		if err != nil {
			t.Fatalf("sparse %v: %v", kern, err)
		}
		if !identicalMatrices(res.Dist, base.Dist) {
			t.Errorf("sparse %v: distances differ from serial", kern)
		}
		if !reflect.DeepEqual(res.Report, base.Report) {
			t.Errorf("sparse %v: cost report differs from serial", kern)
		}
	}

	dcBase, err := DCAPSP(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fwBase, err := Dist2DFW(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []semiring.Kernel{semiring.KernelTiled, semiring.KernelPooled, semiring.KernelSparse} {
		dc, err := DCAPSPKernel(g, 4, 2, kern)
		if err != nil {
			t.Fatalf("dc %v: %v", kern, err)
		}
		if !identicalMatrices(dc.Dist, dcBase.Dist) || !reflect.DeepEqual(dc.Report, dcBase.Report) {
			t.Errorf("dc %v: run differs from serial", kern)
		}
		fw, err := Dist2DFWKernel(g, 4, kern)
		if err != nil {
			t.Fatalf("2dfw %v: %v", kern, err)
		}
		if !identicalMatrices(fw.Dist, fwBase.Dist) || !reflect.DeepEqual(fw.Report, fwBase.Report) {
			t.Errorf("2dfw %v: run differs from serial", kern)
		}
	}
}

// TestSparseAPSPMatchesClassicalFWAllKernels is the end-to-end property
// test of the plan/execute, kernel and wire layers together: for random
// graphs from several families, EVERY kernel (including KernelSparse)
// and BOTH wire formats, the distributed sparse solver's distances
// are bit-identical to the sequential ClassicalFW reference — and
// within a wire format, the charged cost report is identical across
// kernels and across cold (plan built this solve) vs warm (plan fetched
// from a cache) execution. Weights are small random integers: integer sums are
// exact in float64, so the distributed elimination and the sequential
// sweep fold path sums to identical bits even though they associate
// them differently.
func TestSparseAPSPMatchesClassicalFWAllKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(9, 9, integerWeights(rng, 10)), 9},
		{"gnp", graph.RandomGNP(70, 0.08, integerWeights(rng, 5), rng), 9},
		{"tree", graph.RandomTree(90, graph.UnitWeights, rng), 49},
		{"rmat", graph.RMAT(6, 3, integerWeights(rng, 4), rng), 9},
		{"star", graph.Star(60, graph.UnitWeights), 9},
	}
	for _, tc := range graphs {
		want := classicalReference(tc.g)
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			cache := NewPlanCache()
			var base *DistResult
			for _, kern := range semiring.Kernels() {
				res, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 11, Kernel: kern, Wire: wire})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", tc.name, wire, kern, err)
				}
				if !identicalMatrices(res.Dist, want) {
					t.Errorf("%s/%v/%v: distances differ from ClassicalFW", tc.name, wire, kern)
				}
				if base == nil {
					base = res
				} else if !reflect.DeepEqual(res.Report, base.Report) {
					t.Errorf("%s/%v/%v: cost report differs across kernels", tc.name, wire, kern)
				}
				// The cached-plan path must be indistinguishable from the
				// build-per-solve path (first iteration builds, rest hit).
				warm, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 11, Kernel: kern, Wire: wire, Plans: cache})
				if err != nil {
					t.Fatalf("%s/%v/%v (cached): %v", tc.name, wire, kern, err)
				}
				if !identicalMatrices(warm.Dist, want) || !reflect.DeepEqual(warm.Report, base.Report) {
					t.Errorf("%s/%v/%v: plan-cached solve differs from direct solve", tc.name, wire, kern)
				}
			}
			if s := cache.Stats(); s.Builds != 1 || s.Hits != int64(len(semiring.Kernels())-1) {
				t.Errorf("%s/%v: plan cache stats %+v, want 1 build / %d hits", tc.name, wire, s, len(semiring.Kernels())-1)
			}
		}
	}
}

// integerWeights returns a WeightFn drawing integer weights in [1, hi],
// which float64 represents and sums exactly.
func integerWeights(rng *rand.Rand, hi int) graph.WeightFn {
	return func(u, v int) float64 { return float64(rng.Intn(hi) + 1) }
}

// classicalReference builds the adjacency matrix and closes it with the
// serial ClassicalFW.
func classicalReference(g *graph.Graph) *semiring.Matrix {
	m := semiring.NewMatrix(g.N(), g.N())
	for v := 0; v < g.N(); v++ {
		m.Set(v, v, 0)
		for _, e := range g.Adj(v) {
			if e.W < m.At(v, e.To) {
				m.Set(v, e.To, e.W)
			}
		}
	}
	semiring.ClassicalFW(m)
	return m
}

// TestSequentialSolversKernelInvariant covers the sequential wrappers:
// same distances bit for bit and the same operation count per kernel.
func TestSequentialSolversKernelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Grid2D(13, 13, graph.RandomWeights(rng, 1, 10))

	fwD, fwOps := FloydWarshall(g)
	bD, bOps := BlockedFloydWarshall(g, 32)
	sfw, err := SuperFW(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []semiring.Kernel{semiring.KernelTiled, semiring.KernelPooled, semiring.KernelSparse} {
		d, ops := FloydWarshallKernel(g, kern)
		if ops != fwOps || !identicalMatrices(d, fwD) {
			t.Errorf("FloydWarshall %v: ops=%d want %d (or distances differ)", kern, ops, fwOps)
		}
		d, ops = BlockedFloydWarshallKernel(g, 32, kern)
		if ops != bOps || !identicalMatrices(d, bD) {
			t.Errorf("BlockedFloydWarshall %v: ops=%d want %d (or distances differ)", kern, ops, bOps)
		}
		r, err := SuperFWKernel(g, 3, 7, kern)
		if err != nil {
			t.Fatalf("SuperFW %v: %v", kern, err)
		}
		if r.Ops != sfw.Ops || !identicalMatrices(r.Dist, sfw.Dist) {
			t.Errorf("SuperFW %v: ops=%d want %d (or distances differ)", kern, r.Ops, sfw.Ops)
		}
	}
}
