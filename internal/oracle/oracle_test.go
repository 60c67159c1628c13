package oracle

import (
	"math"
	"math/rand"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
)

// fwSolve is the reference solver the tests build oracles with.
func fwSolve(g *graph.Graph) (*apsp.PathResult, error) {
	return apsp.FloydWarshallPaths(g), nil
}

func testGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomGNP(n, 3.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
}

func TestOracleMatchesFloydWarshallPaths(t *testing.T) {
	g := testGraph(7, 40)
	o, err := New(g, fwSolve)
	if err != nil {
		t.Fatal(err)
	}
	want := apsp.FloydWarshallPaths(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			d, err := o.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if ref := want.Dist.At(u, v); d != ref && !(math.IsInf(d, 1) && math.IsInf(ref, 1)) {
				t.Fatalf("Dist(%d,%d) = %g, want %g", u, v, d, ref)
			}
			path, err := o.Path(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(d, 1) {
				if path != nil {
					t.Fatalf("Path(%d,%d) = %v for unreachable pair", u, v, path)
				}
				continue
			}
			if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
				t.Fatalf("Path(%d,%d) = %v: bad endpoints", u, v, path)
			}
			if w := apsp.PathWeight(g, path); math.Abs(w-d) > 1e-9 {
				t.Fatalf("Path(%d,%d) weight %g, want %g", u, v, w, d)
			}
		}
	}
}

func TestOracleBatchMatchesPointQueries(t *testing.T) {
	g := testGraph(11, 50)
	o, err := New(g, fwSolve)
	if err != nil {
		t.Fatal(err)
	}
	pairs := randomPairs(rand.New(rand.NewSource(3)), g.N(), 500)
	dists, err := o.BatchDist(pairs)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := o.BatchPath(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		d, _ := o.Dist(p[0], p[1])
		if dists[i] != d && !(math.IsInf(dists[i], 1) && math.IsInf(d, 1)) {
			t.Fatalf("batch dist %d = %g, want %g", i, dists[i], d)
		}
		if !math.IsInf(d, 1) {
			if w := apsp.PathWeight(g, paths[i]); math.Abs(w-d) > 1e-9 {
				t.Fatalf("batch path %d weight %g, want %g", i, w, d)
			}
		} else if paths[i] != nil {
			t.Fatalf("batch path %d = %v for unreachable pair", i, paths[i])
		}
	}
}

// randomPairs draws k query pairs on n vertices.
func randomPairs(rng *rand.Rand, n, k int) [][2]int {
	pairs := make([][2]int, k)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return pairs
}

// TestBatchDistAllocatesOnlyItsResult: a standalone oracle answers a
// batch on the caller's goroutine, so the result slice is the call's
// one allocation.
func TestBatchDistAllocatesOnlyItsResult(t *testing.T) {
	g := testGraph(11, 50)
	o, err := New(g, fwSolve)
	if err != nil {
		t.Fatal(err)
	}
	pairs := randomPairs(rand.New(rand.NewSource(3)), g.N(), 64)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.BatchDist(pairs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("BatchDist of %d pairs: %v allocations per call, want 1", len(pairs), allocs)
	}
}

// BenchmarkOracleBatch answers 64-pair batches, the serve workloads'
// size, on the served grid (32², weights 1..9, solved at p = 49).
func BenchmarkOracleBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := graph.Grid2D(32, 32, func(u, v int) float64 { return float64(1 + rng.Intn(9)) })
	res, err := apsp.SparseAPSPWith(g, 49, apsp.SparseOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pr, err := apsp.SuccessorsFromDist(g, res.Dist)
	if err != nil {
		b.Fatal(err)
	}
	o := FromResult(pr, nil)
	pairs := randomPairs(rng, g.N(), 64)
	b.Run("dist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.BatchDist(pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.BatchPath(pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestOracleRejectsBadQueries(t *testing.T) {
	o, err := New(testGraph(5, 10), fwSolve)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Dist(-1, 0); err == nil {
		t.Error("Dist(-1,0): want error")
	}
	if _, err := o.Path(0, 10); err == nil {
		t.Error("Path(0,10): want error")
	}
	if _, err := o.BatchDist([][2]int{{0, 1}, {3, 99}}); err == nil {
		t.Error("BatchDist with bad pair: want error")
	}
	if _, err := o.BatchPath([][2]int{{99, 0}}); err == nil {
		t.Error("BatchPath with bad pair: want error")
	}
	if _, err := New(nil, fwSolve); err == nil {
		t.Error("New(nil graph): want error")
	}
	if _, err := New(testGraph(5, 10), nil); err == nil {
		t.Error("New(nil solve): want error")
	}
}

func TestFingerprintDistinguishesGraphs(t *testing.T) {
	a := testGraph(1, 20)
	b := testGraph(2, 20)
	if FingerprintOf(a) == FingerprintOf(b) {
		t.Error("different graphs share a fingerprint")
	}
	if FingerprintOf(a) != FingerprintOf(a.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	// Weight changes must change the fingerprint too.
	c := a.Clone()
	e := c.Adj(0)[0]
	d := a.Clone()
	d.AddEdge(0, e.To, e.W/2) // AddEdge keeps the min weight
	if FingerprintOf(a) == FingerprintOf(d) {
		t.Error("weight change kept the fingerprint")
	}
	fp := FingerprintOf(a)
	back, err := ParseFingerprint(fp.String())
	if err != nil || back != fp {
		t.Errorf("ParseFingerprint(String) round-trip failed: %v", err)
	}
	if _, err := ParseFingerprint("zz"); err == nil {
		t.Error("ParseFingerprint accepted junk")
	}
}
