package graph

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 2, 99) // self-loop ignored
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 2.5 {
		t.Errorf("edge {1,0}: w=%v ok=%v", w, ok)
	}
	if _, ok := g.HasEdge(0, 3); ok {
		t.Error("unexpected edge {0,3}")
	}
}

func TestAddEdgeParallelKeepsMinimum(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 0, 7)
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if w, _ := g.HasEdge(0, 1); w != 3 {
		t.Errorf("weight = %v, want 3", w)
	}
	if w, _ := g.HasEdge(1, 0); w != 3 {
		t.Errorf("reverse weight = %v, want 3", w)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomGNP(30, 0.2, RandomWeights(rng, 1, 5), rng)
	perm := rng.Perm(30)
	inv := make([]int, 30)
	for i, p := range perm {
		inv[p] = i
	}
	back := g.Permute(perm).Permute(inv)
	if back.M() != g.M() {
		t.Fatalf("round-trip edge count %d, want %d", back.M(), g.M())
	}
	for _, e := range g.Edges() {
		if w, ok := back.HasEdge(e.U, e.V); !ok || w != e.W {
			t.Errorf("edge {%d,%d}: got w=%v ok=%v, want %v", e.U, e.V, w, ok, e.W)
		}
	}
}

func TestPermutePreservesAdjacency(t *testing.T) {
	g := Path(5, UnitWeights)
	// reverse order
	perm := []int{4, 3, 2, 1, 0}
	h := g.Permute(perm)
	for v := 0; v+1 < 5; v++ {
		if _, ok := h.HasEdge(perm[v], perm[v+1]); !ok {
			t.Errorf("missing edge {%d,%d} after permute", perm[v], perm[v+1])
		}
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	g := New(3)
	for _, perm := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v: expected panic", perm)
				}
			}()
			g.Permute(perm)
		}()
	}
}

func TestSubgraphInduces(t *testing.T) {
	g := Grid2D(3, 3, UnitWeights)
	sub := g.Subgraph([]int{0, 1, 3, 4}) // top-left 2x2 block
	if sub.N() != 4 {
		t.Fatalf("sub N = %d", sub.N())
	}
	if sub.M() != 4 {
		t.Errorf("sub M = %d, want 4 (a 2x2 grid square)", sub.M())
	}
}

func TestAdjacencyMatrix(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	a := g.AdjacencyMatrix()
	if a[0*3+0] != 0 || a[1*3+1] != 0 || a[2*3+2] != 0 {
		t.Error("diagonal should be 0")
	}
	if a[0*3+1] != 2 || a[1*3+0] != 2 {
		t.Error("edge weight missing")
	}
	if !math.IsInf(a[0*3+2], 1) {
		t.Error("absent edge should be Inf")
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(4, 5, UnitWeights)
	if g.N() != 20 {
		t.Errorf("N = %d", g.N())
	}
	// edges: horizontal 4*(5-1) + vertical (4-1)*5 = 16 + 15
	if g.M() != 31 {
		t.Errorf("M = %d, want 31", g.M())
	}
	if !g.Connected() {
		t.Error("grid should be connected")
	}
}

func TestGrid3DStructure(t *testing.T) {
	g := Grid3D(2, 3, 4, UnitWeights)
	if g.N() != 24 {
		t.Errorf("N = %d", g.N())
	}
	want := 1*3*4 + 2*2*4 + 2*3*3 // x-, y-, z-direction edges
	if g.M() != want {
		t.Errorf("M = %d, want %d", g.M(), want)
	}
}

func TestGeneratorsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]*Graph{
		"path":        Path(17, UnitWeights),
		"cycle":       Cycle(10, UnitWeights),
		"complete":    Complete(9, UnitWeights),
		"star":        Star(12, UnitWeights),
		"tree":        RandomTree(40, UnitWeights, rng),
		"gnp":         RandomGNP(50, 0.05, UnitWeights, rng),
		"rmat":        RMAT(6, 4, UnitWeights, rng),
		"caterpillar": Caterpillar(5, 3, UnitWeights),
	}
	for name, g := range cases {
		if !g.Connected() {
			t.Errorf("%s: not connected", name)
		}
	}
}

func TestCompleteEdgeCount(t *testing.T) {
	g := Complete(10, UnitWeights)
	if g.M() != 45 {
		t.Errorf("K10 has %d edges, want 45", g.M())
	}
}

func TestFigure1GraphMatchesPaper(t *testing.T) {
	g := Figure1Graph()
	if g.N() != 7 {
		t.Fatalf("N = %d", g.N())
	}
	// No edge between V1 = {0,1,2} and V2 = {3,4,5}.
	for u := 0; u <= 2; u++ {
		for v := 3; v <= 5; v++ {
			if _, ok := g.HasEdge(u, v); ok {
				t.Errorf("unexpected V1-V2 edge {%d,%d}", u, v)
			}
		}
	}
	if !g.Connected() {
		t.Error("Figure 1 graph should be connected through the separator")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestBFSOrderAndDepth(t *testing.T) {
	g := Path(5, UnitWeights)
	depths := make([]int, 5)
	order := g.BFS(0, func(v, d int) { depths[v] = d })
	if len(order) != 5 || order[0] != 0 {
		t.Fatalf("order = %v", order)
	}
	for v := 0; v < 5; v++ {
		if depths[v] != v {
			t.Errorf("depth[%d] = %d, want %d", v, depths[v], v)
		}
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := Path(9, UnitWeights)
	pp := g.PseudoPeripheral(4)
	if pp != 0 && pp != 8 {
		t.Errorf("pseudo-peripheral of path midpoint = %d, want an endpoint", pp)
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomGNP(25, 0.15, RandomWeights(rng, 1, 9), rng)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round-trip n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if w, ok := back.HasEdge(e.U, e.V); !ok || w != e.W {
			t.Errorf("edge {%d,%d}: w=%v ok=%v, want %v", e.U, e.V, w, ok, e.W)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"0 1 2\n",           // edge before header
		"n -3\n",            // negative count
		"n 2\n0\n",          // short edge line
		"n 2\n0 5 1\n",      // vertex out of range
		"n 2\nn 3\n",        // duplicate header
		"n 2\na b 1\n",      // non-numeric vertex
		"n 2\n0 1 weight\n", // non-numeric weight
		"n\n",               // header missing count (fuzzer-found)
		"",                  // empty
	}
	for _, s := range bad {
		if _, err := Read(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("Read(%q) succeeded, want error", s)
		}
	}
}

func TestReadDefaultsWeightAndSkipsComments(t *testing.T) {
	in := "# a comment\nn 3\n\n0 1\n1 2 4.5\n"
	g, err := Read(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.HasEdge(0, 1); w != 1 {
		t.Errorf("default weight = %v, want 1", w)
	}
	if w, _ := g.HasEdge(1, 2); w != 4.5 {
		t.Errorf("weight = %v, want 4.5", w)
	}
}

// TestReadLineCap: a line of 1 MiB − 1 bytes before its '\n' reads and
// one of 1 MiB is bufio.ErrTooLong, the cap the line buffer had when it
// was allocated whole up front.
func TestReadLineCap(t *testing.T) {
	line := func(n int) string { return "0 1 2" + strings.Repeat(" ", n-5) }
	if _, err := Read(strings.NewReader("n 2\n" + line(1<<20-1) + "\n")); err != nil {
		t.Errorf("a line of 1 MiB − 1 bytes: %v", err)
	}
	if _, err := Read(strings.NewReader("n 2\n" + line(1<<20) + "\n")); err != bufio.ErrTooLong {
		t.Errorf("a line of 1 MiB: %v, want %v", err, bufio.ErrTooLong)
	}
}

func TestNamedGenerators(t *testing.T) {
	names := []string{"grid", "grid3d", "path", "cycle", "tree", "gnp", "gnp-dense", "rmat", "complete", "star", "rgg"}
	for _, name := range names {
		g, err := NamedGenerator(name, 64, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.N() == 0 || !g.Connected() {
			t.Errorf("%s: n=%d connected=%v", name, g.N(), g.Connected())
		}
	}
	if _, err := NamedGenerator("bogus", 10, 1); err == nil {
		t.Error("expected error for unknown generator")
	}
}

// Property: Permute preserves the multiset of edge weights and all
// degrees (up to relabeling).
func TestQuickPermutePreservesStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := RandomGNP(n, 0.2, RandomWeights(rng, 1, 5), rng)
		perm := rng.Perm(n)
		h := g.Permute(perm)
		if h.M() != g.M() {
			return false
		}
		for v := 0; v < n; v++ {
			if h.Degree(perm[v]) != g.Degree(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is deep — mutating the clone leaves the original alone.
func TestCloneIsDeep(t *testing.T) {
	g := Path(4, UnitWeights)
	c := g.Clone()
	c.AddEdge(0, 3, 9)
	if _, ok := g.HasEdge(0, 3); ok {
		t.Error("clone mutation leaked into original")
	}
	if c.M() != g.M()+1 {
		t.Errorf("clone M = %d, want %d", c.M(), g.M()+1)
	}
}

func BenchmarkGrid2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Grid2D(64, 64, UnitWeights)
	}
}

func BenchmarkAdjacencyMatrix(b *testing.B) {
	g := Grid2D(32, 32, UnitWeights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AdjacencyMatrix()
	}
}

func BenchmarkPermute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := Grid2D(32, 32, UnitWeights)
	perm := rng.Perm(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Permute(perm)
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := RandomGeometric(300, 0.12, rng)
	if g.N() != 300 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Error("RGG should be connected (path fallback)")
	}
	// Edge weights are Euclidean distances in the unit square.
	for _, e := range g.Edges() {
		if e.W <= 0 || e.W > 1.5 {
			t.Fatalf("edge {%d,%d} weight %v outside (0, √2]", e.U, e.V, e.W)
		}
	}
	// Average degree is bounded: geometric graphs at radius c/√n have
	// Θ(1) expected degree.
	if g.M() > 300*12 {
		t.Errorf("M = %d, unexpectedly dense", g.M())
	}
}
