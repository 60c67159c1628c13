package apsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparseapsp/internal/graph"
)

func TestFloydWarshallPathsSmall(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	pr := FloydWarshallPaths(g)
	path := pr.Path(0, 3)
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if w := PathWeight(g, path); w != 4 {
		t.Errorf("path weight = %v, want 4", w)
	}
}

func TestPathEdgeCases(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	pr := FloydWarshallPaths(g)
	if p := pr.Path(0, 0); len(p) != 1 || p[0] != 0 {
		t.Errorf("self path = %v", p)
	}
	if p := pr.Path(0, 2); p != nil {
		t.Errorf("unreachable path = %v, want nil", p)
	}
	if w := PathWeight(g, nil); !math.IsInf(w, 1) {
		t.Error("empty path weight should be Inf")
	}
	if w := PathWeight(g, []int{0, 2}); !math.IsInf(w, 1) {
		t.Error("invalid path weight should be Inf")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range query")
			}
		}()
		pr.Path(0, 5)
	}()
}

// Property: successor structures extracted from a finished distance
// matrix (any solver) reconstruct real shortest paths: every path has
// the right endpoints and weighs its pair's distance, and an unreachable
// pair has none. Only distances and path weights are compared, not the
// hops, which the two builders' tie-breaks may choose differently.
func TestQuickSuccessorsFromDist(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.RandomGNP(n, 3.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		d, _ := FloydWarshall(g)
		pr, err := SuccessorsFromDist(g, d)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				dist := d.At(u, v)
				path := pr.Path(u, v)
				if math.IsInf(dist, 1) {
					if path != nil {
						return false
					}
					continue
				}
				if path[0] != u || path[len(path)-1] != v {
					return false
				}
				if math.Abs(PathWeight(g, path)-dist) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Zero-weight edges make the tight-edge graph cyclic; the BFS-tree
// extraction must still terminate and return genuine shortest paths.
func TestSuccessorsFromDistZeroWeightCycle(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(2, 3, 5)
	d, _ := FloydWarshall(g)
	pr, err := SuccessorsFromDist(g, d)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			path := pr.Path(u, v)
			if w := PathWeight(g, path); w != d.At(u, v) {
				t.Errorf("Path(%d,%d) = %v weight %g, want %g", u, v, path, w, d.At(u, v))
			}
		}
	}
}

func TestSuccessorsFromDistRejectsBadInput(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	if _, err := SuccessorsFromDist(nil, nil); err == nil {
		t.Error("nil graph: want error")
	}
	d, _ := FloydWarshall(g)
	if _, err := SuccessorsFromDist(graph.New(4), d); err == nil {
		t.Error("dimension mismatch: want error")
	}
	// Distances no edge sequence can explain.
	bad := d.Clone()
	bad.Set(0, 1, 0.5)
	if _, err := SuccessorsFromDist(g, bad); err == nil {
		t.Error("inconsistent distances: want error")
	}
	neg := graph.New(2)
	neg.AddEdge(0, 1, -1)
	dn, _ := FloydWarshall(neg)
	if _, err := SuccessorsFromDist(neg, dn); err == nil {
		t.Error("negative edge: want error")
	}
}

// TestPathResultMemoryBytes: a result retains its float64 distances
// plus Successors.Bytes(), and Bits() — the widest column — follows the
// maximum degree of the family: 1 bit on paths and cycles, 2 on grids, 6
// on a small star, 9 once the hub passes 256 neighbours. The star's rows
// hold the hub's column and nothing else: its leaves need no bits.
func TestPathResultMemoryBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		width int
	}{
		{"path", graph.Path(50, graph.UnitWeights), 1},
		{"cycle", graph.Cycle(50, graph.UnitWeights), 1},
		{"grid", graph.Grid2D(4, 4, graph.UnitWeights), 2},
		{"star-60", graph.Star(60, graph.UnitWeights), 6},
		{"star-300", graph.Star(300, graph.UnitWeights), 9},
	} {
		pr := FloydWarshallPaths(c.g)
		n := c.g.N()
		if got := pr.Successors().Bits(); got != c.width {
			t.Errorf("%s: widest column %d bits, want %d", c.name, got, c.width)
		}
		if want, _ := columnTableBytes(c.g); pr.Successors().Bytes() != want {
			t.Errorf("%s: Successors.Bytes = %d, want %d", c.name, pr.Successors().Bytes(), want)
		}
		if got, want := pr.MemoryBytes(), int64(n*n*8)+pr.Successors().Bytes(); got != want {
			t.Errorf("%s: MemoryBytes = %d, want %d", c.name, got, want)
		}
		if pr.N() != n {
			t.Errorf("%s: N = %d, want %d", c.name, pr.N(), n)
		}
	}
	if got := FloydWarshallPaths(graph.Star(300, graph.UnitWeights)).Successors().rowWords; got != 1 {
		t.Errorf("star-300: a row is %d words, want the hub's 9 bits in one", got)
	}
}

// Property: every reconstructed path is a real path in the graph whose
// weight equals the distance matrix entry.
func TestQuickPathsAreShortest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.RandomGNP(n, 3.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		pr := FloydWarshallPaths(g)
		ref, _ := FloydWarshall(g)
		if !pr.Dist.EqualTol(ref, 1e-9) {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			path := pr.Path(u, v)
			d := pr.Dist.At(u, v)
			if math.IsInf(d, 1) {
				if path != nil {
					return false
				}
				continue
			}
			if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
				return false
			}
			if math.Abs(PathWeight(g, path)-d) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
