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
	o, err := New(g, fwSolve, nil)
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
	o, err := New(g, fwSolve, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]int, 500)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
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

func TestOracleRejectsBadQueries(t *testing.T) {
	o, err := New(testGraph(5, 10), fwSolve, nil)
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
	if _, err := New(nil, fwSolve, nil); err == nil {
		t.Error("New(nil graph): want error")
	}
	if _, err := New(testGraph(5, 10), nil, nil); err == nil {
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
