package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
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

// parseShape is a family of edge-list bodies, one per leaf count, and
// the edge count each parses to.
type parseShape struct {
	name string
	body func(leaves int) string
	m    func(leaves int) int
}

// starShape is a star whose lines name the hub first.
var starShape = parseShape{"star", func(leaves int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n %d\n", leaves+1)
	for v := 1; v <= leaves; v++ {
		fmt.Fprintf(&b, "0 %d %d\n", v, 1+v%9)
	}
	return b.String()
}, func(leaves int) int { return leaves }}

// checkParsesLinearly fails unless s's body with 100,000 leaves parses
// in under 8× the time of its body with 25,000 (linear is about 4×, a
// scan per line about 16×), best of five.
func checkParsesLinearly(t *testing.T, s parseShape) {
	t.Helper()
	sizes := [2]int{25_000, 100_000}
	var bodies [2]string
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for i, leaves := range sizes {
		bodies[i] = s.body(leaves)
	}
	// The sizes alternate, so a stretch of load on the host slows
	// both rather than one.
	for range 5 {
		for i, body := range bodies {
			runtime.GC() // the last body's garbage is not this parse's
			start := time.Now()
			g, err := Read(strings.NewReader(body))
			best[i] = min(best[i], time.Since(start))
			if err != nil || g.M() != s.m(sizes[i]) {
				t.Fatalf("%s, %d leaves: %v", s.name, sizes[i], err)
			}
		}
	}
	if small, large := best[0], best[1]; large >= 8*small {
		t.Errorf("%s: 100,000 leaves parse in %v, 25,000 in %v: %.1f×, want under 8×", s.name, large, small, float64(large)/float64(small))
	}
}

// TestReadStarLinear: parsing a star whose lines name the hub first
// grows with the body, not with the hub's degree per line; the
// duplicate check that scanned the hub's whole list on every line made
// it quadratic.
func TestReadStarLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times ten parses; run without -short")
	}
	checkParsesLinearly(t, starShape)
}

// TestReadDuplicateEdgesLinear: repeating an edge costs the same
// however long its endpoints' lists are. Two shapes were quadratic when
// each repeat scanned a list: two hubs joined by as many repeats of
// their edge as each has leaves, and a star whose last edge repeats as
// many times with falling weights, so each repeat also finds the hub's
// slot.
func TestReadDuplicateEdgesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times twenty parses; run without -short")
	}
	for _, s := range []parseShape{
		{"two hubs", func(leaves int) string {
			var b strings.Builder
			fmt.Fprintf(&b, "n %d\n", 2*leaves+2)
			for v := 2; v < 2*leaves+2; v++ {
				fmt.Fprintf(&b, "%d %d %d\n", v%2, v, 1+v%9)
			}
			for range leaves {
				b.WriteString("0 1 5\n")
			}
			return b.String()
		}, func(leaves int) int { return 2*leaves + 1 }},
		{"falling repeats", func(leaves int) string {
			var b strings.Builder
			b.WriteString(starShape.body(leaves))
			for w := range leaves {
				fmt.Fprintf(&b, "0 %d %d\n", leaves, -w)
			}
			return b.String()
		}, func(leaves int) int { return leaves }},
	} {
		checkParsesLinearly(t, s)
	}
}

// TestParseMemoryFollowsGraph: what Parse holds grows with the graph,
// not with the body. A 2-vertex graph after 8 MiB of blank lines, or of
// one edge line repeated, allocates less than 64 KiB.
func TestParseMemoryFollowsGraph(t *testing.T) {
	for _, c := range []struct {
		name string
		line string
		m    int
	}{{"blank lines", "\n", 0}, {"one edge repeated", "0 1 5\n", 1}} {
		body := []byte("n 2\n" + strings.Repeat(c.line, 8<<20/len(c.line)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Parse(body, nil)
		runtime.ReadMemStats(&after)
		if err != nil || g.N() != 2 || g.M() != c.m {
			t.Fatalf("%s: %v", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: parsing a %d-byte body allocated %d bytes, want less than 64 KiB", c.name, len(body), alloc)
		}
	}
}

// TestParseLineCapMatchesScanner: at the 1 MiB line cap Parse refuses
// exactly what the Scanner loop refused, with or without a final '\n'
// and a '\r' before it.
func TestParseLineCapMatchesScanner(t *testing.T) {
	for _, n := range []int{1<<20 - 2, 1<<20 - 1, 1 << 20} {
		line := "0 1 2" + strings.Repeat(" ", n-5)
		for _, end := range []string{"", "\n", "\r\n", "\r"} {
			matchesScanner(t, []byte("n 2\n"+line+end+"1 0 1\n"))
			matchesScanner(t, []byte("n 2\n"+line+end))
		}
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
