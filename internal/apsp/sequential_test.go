package apsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// FloydWarshallFull is FloydWarshall with no empty-entry skipping: it
// always performs exactly n³ operations: the classical-cost reference
// the operation-count tests compare SuperFW's saving against.
func FloydWarshallFull(g *graph.Graph) (*semiring.Matrix, int64) {
	n := g.N()
	m := semiring.FromSlice(n, n, g.AdjacencyMatrix())
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			mik := m.At(i, k)
			for j := 0; j < n; j++ {
				if s := mik + m.At(k, j); s < m.At(i, j) {
					m.Set(i, j, s)
				}
			}
		}
	}
	return m, int64(n) * int64(n) * int64(n)
}

// testGraphs builds the standard correctness workload set.
func testGraphs(rng *rand.Rand) map[string]*graph.Graph {
	w := graph.RandomWeights(rng, 1, 10)
	return map[string]*graph.Graph{
		"empty":    graph.New(0),
		"single":   graph.New(1),
		"two-disc": graph.New(2),
		"path":     graph.Path(13, w),
		"cycle":    graph.Cycle(9, w),
		"grid":     graph.Grid2D(6, 7, w),
		"complete": graph.Complete(11, w),
		"star":     graph.Star(14, w),
		"tree":     graph.RandomTree(25, w, rng),
		"gnp":      graph.RandomGNP(30, 0.12, w, rng),
		"rmat":     graph.RMAT(5, 4, w, rng),
		"disconn":  disconnected(w),
		"unitgrid": graph.Grid2D(5, 5, graph.UnitWeights),
	}
}

func disconnected(w graph.WeightFn) *graph.Graph {
	g := graph.New(14)
	for v := 0; v+1 < 6; v++ {
		g.AddEdge(v, v+1, w(v, v+1))
	}
	for v := 7; v+1 < 13; v++ {
		g.AddEdge(v, v+1, w(v, v+1))
	}
	// vertices 6 and 13 are isolated
	return g
}

func TestFloydWarshallSmallHandComputed(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	d, ops := FloydWarshall(g)
	want := [][]float64{
		{0, 1, 3, 4},
		{1, 0, 2, 3},
		{3, 2, 0, 1},
		{4, 3, 1, 0},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != want[i][j] {
				t.Errorf("d(%d,%d) = %v, want %v", i, j, d.At(i, j), want[i][j])
			}
		}
	}
	if ops <= 0 {
		t.Error("no operations counted")
	}
}

func TestJohnsonMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, g := range testGraphs(rng) {
		want, _ := FloydWarshall(g)
		got, err := Johnson(g)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.EqualTol(want, 1e-9) {
			t.Errorf("%s: Johnson diverges from Floyd-Warshall", name)
		}
	}
}

func TestJohnsonRejectsNegativeEdges(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, -1)
	if _, err := Johnson(g); err == nil {
		t.Error("expected error for negative undirected edge")
	}
}

func TestFloydWarshallFullCountsN3(t *testing.T) {
	g := graph.Path(9, graph.UnitWeights)
	d, ops := FloydWarshallFull(g)
	if ops != 9*9*9 {
		t.Errorf("ops = %d, want 729", ops)
	}
	want, _ := FloydWarshall(g)
	if !d.Equal(want) {
		t.Error("FloydWarshallFull diverges")
	}
}

func TestSuperFWMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for name, g := range testGraphs(rng) {
		want, _ := FloydWarshall(g)
		for _, h := range []int{1, 2, 3} {
			res, err := SuperFW(g, h, 7)
			if err != nil {
				t.Errorf("%s h=%d: %v", name, h, err)
				continue
			}
			if !res.Dist.EqualTol(want, 1e-9) {
				t.Errorf("%s h=%d: SuperFW diverges from Floyd-Warshall", name, h)
			}
		}
	}
}

// E12: SuperFW's operation count on a grid beats classical FW by a
// factor that grows with n/|S| (the PPoPP'20 headline).
func TestSuperFWOperationReduction(t *testing.T) {
	g := graph.Grid2D(20, 20, graph.UnitWeights)
	res, err := SuperFW(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, full := FloydWarshallFull(g)
	if res.Ops >= full {
		t.Errorf("SuperFW ops %d not below classical %d", res.Ops, full)
	}
	// n = 400, |S| ≈ 20: expect at least ~2x reduction at h=4 even with
	// modest separators.
	if res.Ops*2 > full {
		t.Errorf("SuperFW reduction too small: %d vs %d (%.2fx)",
			res.Ops, full, float64(full)/float64(res.Ops))
	}
}

func TestLayoutBlocksPartitionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomGNP(30, 0.15, graph.RandomWeights(rng, 1, 9), rng)
	ly, err := NewLayout(g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	blocks := ly.Blocks()
	// Reassembling the untouched blocks must reproduce the adjacency
	// matrix in the original order.
	back := ly.AssembleOriginal(blocks)
	adj := semiring.FromSlice(g.N(), g.N(), g.AdjacencyMatrix())
	if !back.Equal(adj) {
		t.Fatal("Blocks/AssembleOriginal does not round-trip the adjacency matrix")
	}
	// Cousin blocks must start empty (the Figure 1 observation).
	tr := ly.Tree
	for i := 1; i <= ly.ND.N; i++ {
		for j := 1; j <= ly.ND.N; j++ {
			if i != j && !tr.Related(i, j) && !blocks[i][j].IsAllInf() {
				t.Errorf("cousin block (%d,%d) is not empty", i, j)
			}
		}
	}
	// Total block area is n².
	area := 0
	for i := 1; i <= ly.ND.N; i++ {
		for j := 1; j <= ly.ND.N; j++ {
			area += blocks[i][j].Rows * blocks[i][j].Cols
		}
	}
	if area != g.N()*g.N() {
		t.Errorf("total block area = %d, want %d", area, g.N()*g.N())
	}
}

func TestHeightForP(t *testing.T) {
	ok := map[int]int{1: 1, 9: 2, 49: 3, 225: 4, 961: 5}
	for p, want := range ok {
		h, err := HeightForP(p)
		if err != nil || h != want {
			t.Errorf("HeightForP(%d) = %d, %v", p, h, err)
		}
	}
	for _, p := range []int{2, 4, 16, 25, 100} {
		if _, err := HeightForP(p); err == nil {
			t.Errorf("HeightForP(%d) succeeded, want error", p)
		}
	}
}

func TestValidSparseP(t *testing.T) {
	got := ValidSparseP(1000)
	want := []int{1, 9, 49, 225, 961}
	if len(got) != len(want) {
		t.Fatalf("ValidSparseP = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ValidSparseP = %v, want %v", got, want)
		}
	}
}

// Property: SuperFW agrees with Johnson on random connected graphs for
// random tree heights.
func TestQuickSuperFWAgainstJohnson(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := graph.RandomGNP(n, 2.5/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		h := 1 + rng.Intn(3)
		res, err := SuperFW(g, h, seed)
		if err != nil {
			return false
		}
		want, err := Johnson(g)
		if err != nil {
			return false
		}
		return res.Dist.EqualTol(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDisconnectedDistancesAreInf(t *testing.T) {
	g := disconnected(graph.UnitWeights)
	d, _ := FloydWarshall(g)
	if !math.IsInf(d.At(0, 7), 1) {
		t.Error("cross-component distance should be Inf")
	}
	if !math.IsInf(d.At(6, 0), 1) {
		t.Error("isolated vertex distance should be Inf")
	}
	if d.At(6, 6) != 0 {
		t.Error("self distance should be 0")
	}
}

// Property: adding an edge never increases any distance, and removing
// reachability never decreases one (monotonicity of shortest paths).
func TestQuickDistancesMonotoneUnderEdgeAddition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		g := graph.RandomGNP(n, 2.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		before, _ := FloydWarshall(g)
		g2 := g.Clone()
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		g2.AddEdge(u, v, 1+rng.Float64()*5)
		after, _ := FloydWarshall(g2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if after.At(i, j) > before.At(i, j)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all edge weights by a positive constant scales all
// finite distances by the same constant.
func TestQuickDistanceScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := graph.RandomGNP(n, 3.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		scale := 1 + rng.Float64()*4
		g2 := graph.New(n)
		for _, e := range g.Edges() {
			g2.AddEdge(e.U, e.V, e.W*scale)
		}
		d1, _ := FloydWarshall(g)
		d2, _ := FloydWarshall(g2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := d1.At(i, j)*scale, d2.At(i, j)
				if math.IsInf(d1.At(i, j), 1) {
					if !math.IsInf(b, 1) {
						return false
					}
					continue
				}
				if math.Abs(a-b) > 1e-6 {
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
