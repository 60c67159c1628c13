package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sparseapsp/internal/graph"
)

func TestFromGraphCSR(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	w := fromGraph(g)
	if w.n != 4 || w.tot != 4 {
		t.Fatalf("n=%d tot=%d", w.n, w.tot)
	}
	nbr, ew := w.neighbors(1)
	if len(nbr) != 2 || ew[0] != 1 {
		t.Errorf("neighbors(1) = %v %v", nbr, ew)
	}
}

func TestCoarsenHalvesGraph(t *testing.T) {
	g := graph.Grid2D(10, 10, graph.UnitWeights)
	w := fromGraph(g)
	rng := rand.New(rand.NewSource(1))
	cg, cmap := coarsen(w, rng)
	if cg == nil {
		t.Fatal("coarsening stalled on a grid")
	}
	if cg.n >= w.n {
		t.Errorf("coarse n = %d, want < %d", cg.n, w.n)
	}
	// Total vertex weight is conserved.
	sum := 0
	for _, vw := range cg.vwgt {
		sum += vw
	}
	if sum != 100 {
		t.Errorf("coarse total vertex weight = %d, want 100", sum)
	}
	for v, c := range cmap {
		if c < 0 || c >= cg.n {
			t.Fatalf("cmap[%d] = %d out of range", v, c)
		}
	}
	// Edge weight is conserved: sum over coarse edges of weight plus
	// weights swallowed inside merged pairs equals fine edge weight.
	fineEdges := 0
	for _, ew := range w.ewgt {
		fineEdges += ew
	}
	coarseEdges := 0
	for _, ew := range cg.ewgt {
		coarseEdges += ew
	}
	if coarseEdges > fineEdges {
		t.Errorf("coarse edge weight %d exceeds fine %d", coarseEdges, fineEdges)
	}
}

func TestBisectBalancedOnGrid(t *testing.T) {
	g := graph.Grid2D(16, 16, graph.UnitWeights)
	w := fromGraph(g)
	part := bisect(w, defaultBisectOptions(), rand.New(rand.NewSource(2)))
	w0, w1 := w.sideWeights(part)
	if w0+w1 != 256 {
		t.Fatalf("side weights %d+%d != 256", w0, w1)
	}
	lo, hi := w0, w1
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 256*35/100 {
		t.Errorf("imbalanced: %d vs %d", w0, w1)
	}
	cut := w.cutWeight(part)
	// A 16x16 grid has a width-16 line cut; the partitioner should get
	// within a small factor of it.
	if cut > 48 {
		t.Errorf("cut = %d, want near 16", cut)
	}
}

func TestBisectTinyGraphs(t *testing.T) {
	for n := 0; n <= 3; n++ {
		g := graph.Path(n, graph.UnitWeights)
		w := fromGraph(g)
		part := bisect(w, defaultBisectOptions(), rand.New(rand.NewSource(3)))
		if len(part) != n {
			t.Errorf("n=%d: part length %d", n, len(part))
		}
	}
}

func TestVertexSeparatorSeparates(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	w := fromGraph(g)
	part := bisect(w, defaultBisectOptions(), rand.New(rand.NewSource(4)))
	sep := VertexSeparator(g, part)
	// After removing separator vertices, no side-0 vertex may touch a
	// side-1 vertex.
	for _, e := range g.Edges() {
		if sep[e.U] || sep[e.V] {
			continue
		}
		if part[e.U] != part[e.V] {
			t.Fatalf("edge {%d,%d} still crosses after separator removal", e.U, e.V)
		}
	}
	// König: separator size equals maximum matching size ≤ cut size,
	// and for an 8-wide grid line cut it should be about 8.
	size := 0
	for _, s := range sep {
		if s {
			size++
		}
	}
	if size == 0 || size > 16 {
		t.Errorf("separator size = %d, want within (0,16]", size)
	}
}

func TestVertexSeparatorEmptyCut(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	part := []int8{0, 0, 1, 1}
	sep := VertexSeparator(g, part)
	for v, s := range sep {
		if s {
			t.Errorf("vertex %d in separator of empty cut", v)
		}
	}
}

func TestVertexSeparatorStar(t *testing.T) {
	// A star cut anywhere is covered by the single center vertex.
	g := graph.Star(9, graph.UnitWeights)
	part := make([]int8, 9)
	for v := 5; v < 9; v++ {
		part[v] = 1
	}
	// center (0) on side 0, leaves split
	sep := VertexSeparator(g, part)
	size := 0
	for _, s := range sep {
		if s {
			size++
		}
	}
	if size != 1 || !sep[0] {
		t.Errorf("star separator = %v, want just the center", sep)
	}
}

func checkResultInvariants(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	if r.N != (1<<r.H)-1 {
		t.Fatalf("N = %d, want %d", r.N, (1<<r.H)-1)
	}
	// Every vertex appears in exactly one supernode.
	seen := make([]int, g.N())
	total := 0
	for lbl := 1; lbl <= r.N; lbl++ {
		total += len(r.Super[lbl])
		for _, v := range r.Super[lbl] {
			seen[v]++
		}
	}
	if total != g.N() {
		t.Fatalf("supernodes cover %d of %d vertices", total, g.N())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d appears %d times", v, c)
		}
	}
	// Perm is a permutation and inverse matches.
	for v := 0; v < g.N(); v++ {
		if r.InvPerm[r.Perm[v]] != v {
			t.Fatalf("perm/invperm mismatch at %d", v)
		}
	}
	// Starts are consistent with sizes.
	next := 0
	for lbl := 1; lbl <= r.N; lbl++ {
		if r.Starts[lbl] != next {
			t.Fatalf("supernode %d starts at %d, want %d", lbl, r.Starts[lbl], next)
		}
		next += r.Sizes[lbl]
	}
	// The key invariant: cousins are separated.
	if err := CheckSeparation(g, r); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDissectionGrid(t *testing.T) {
	g := graph.Grid2D(12, 12, graph.UnitWeights)
	for h := 1; h <= 4; h++ {
		r, err := NestedDissection(g, h, 42)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		checkResultInvariants(t, g, r)
		if h >= 2 {
			if s := r.SeparatorSize(); s == 0 || s > 24 {
				t.Errorf("h=%d: top separator size %d, want within (0,24] for a 12-grid", h, s)
			}
		}
	}
}

func TestNestedDissectionFigure1(t *testing.T) {
	g := graph.Figure1Graph()
	r, err := NestedDissection(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResultInvariants(t, g, r)
	// The paper's example has a singleton separator (it shows {6}; {2}
	// and {5} are equally minimal — any cut vertex of size 1 with
	// balanced sides reproduces Figure 1's structure).
	if r.Sizes[3] != 1 {
		t.Errorf("separator size = %d, want 1", r.Sizes[3])
	}
	if r.Sizes[1] < 2 || r.Sizes[2] < 2 {
		t.Errorf("side sizes = %d, %d, want both ≥ 2", r.Sizes[1], r.Sizes[2])
	}
	// The reordered matrix must have empty off-diagonal V1/V2 blocks,
	// which CheckSeparation (run above) certifies: no V1–V2 edge.
}

func TestNestedDissectionVariousGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := map[string]*graph.Graph{
		"path":     graph.Path(40, graph.UnitWeights),
		"cycle":    graph.Cycle(33, graph.UnitWeights),
		"tree":     graph.RandomTree(50, graph.UnitWeights, rng),
		"gnp":      graph.RandomGNP(60, 0.1, graph.UnitWeights, rng),
		"complete": graph.Complete(20, graph.UnitWeights),
		"star":     graph.Star(30, graph.UnitWeights),
		"disconn": func() *graph.Graph {
			g := graph.New(20)
			for v := 0; v+1 < 10; v++ {
				g.AddEdge(v, v+1, 1)
			}
			for v := 10; v+1 < 20; v++ {
				g.AddEdge(v, v+1, 1)
			}
			return g
		}(),
		"empty":  graph.New(10),
		"single": graph.New(1),
	}
	for name, g := range cases {
		for _, h := range []int{1, 2, 3} {
			r, err := NestedDissection(g, h, 5)
			if err != nil {
				t.Errorf("%s h=%d: %v", name, h, err)
				continue
			}
			checkResultInvariants(t, g, r)
		}
	}
}

func TestNestedDissectionRejectsBadHeight(t *testing.T) {
	if _, err := NestedDissection(graph.New(3), 0, 1); err == nil {
		t.Error("expected error for h=0")
	}
}

func TestSupernodeOf(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	r, err := NestedDissection(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sup, loc := r.VertexBlocks()
	for lbl := 1; lbl <= r.N; lbl++ {
		for k := 0; k < r.Sizes[lbl]; k++ {
			idx := r.Starts[lbl] + k
			if int(sup[idx]) != lbl || int(loc[idx]) != k {
				t.Errorf("VertexBlocks at %d = (%d, %d), want (%d, %d)", idx, sup[idx], loc[idx], lbl, k)
			}
		}
	}
}

// FromOrdering is the one constructor of a Result: both dissections
// finish through it, so rebuilding either one from its permutation and
// sizes alone gives the same Result back.
func TestFromOrderingRebuildsDissections(t *testing.T) {
	islands := graph.New(40) // a path over 24 vertices, 16 isolated
	for v := 1; v < 24; v++ {
		islands.AddEdge(v-1, v, 1)
	}
	for name, g := range map[string]*graph.Graph{
		"grid":     graph.Grid2D(10, 10, graph.UnitWeights),
		"rgg":      graph.RandomGeometric(80, 0.2, rand.New(rand.NewSource(5))),
		"isolated": islands,
	} {
		seq, err := NestedDissection(g, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := DistributedND(g, 4, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		for kind, r := range map[string]*Result{"NestedDissection": seq, "DistributedND": dist} {
			got, err := FromOrdering(r.H, r.Perm, r.Sizes)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Errorf("%s %s: FromOrdering(h, Perm, Sizes) differs from the dissection", name, kind)
			}
		}
	}
}

func TestFromOrderingRejectsBadOrderings(t *testing.T) {
	perm := []int{2, 0, 1, 3}
	sizes := []int{0, 1, 1, 2}
	if _, err := FromOrdering(2, perm, sizes); err != nil {
		t.Fatalf("valid ordering: %v", err)
	}
	for _, tc := range []struct {
		name        string
		perm, sizes []int
	}{
		{"repeated entry", []int{2, 0, 2, 3}, sizes},
		{"entry out of range", []int{2, 0, 1, 4}, sizes},
		{"negative entry", []int{2, 0, -1, 3}, sizes},
		{"too few sizes", perm, []int{0, 1, 3}},
		{"too many sizes", perm, []int{0, 1, 1, 2, 0}},
		{"sizes[0] set", perm, []int{1, 1, 0, 2}},
		{"negative size", perm, []int{0, -1, 3, 2}},
		{"sizes short of n", perm, []int{0, 1, 1, 1}},
		{"sizes past n", perm, []int{0, 2, 1, 2}},
	} {
		if _, err := FromOrdering(2, tc.perm, tc.sizes); err == nil {
			t.Errorf("%s: accepted perm %v sizes %v", tc.name, tc.perm, tc.sizes)
		}
	}
	if _, err := FromOrdering(0, nil, []int{0}); err == nil {
		t.Error("height 0: accepted")
	}
}

func TestGridSeparatorScaling(t *testing.T) {
	// |S| for a k×k grid should scale like k, not k². This is the
	// workload property the whole paper leans on.
	s8 := sepSize(t, 8)
	s16 := sepSize(t, 16)
	s32 := sepSize(t, 32)
	if s16 > 3*s8+4 || s32 > 3*s16+4 {
		t.Errorf("separator growth too fast: s8=%d s16=%d s32=%d", s8, s16, s32)
	}
	if s32 >= 32*4 {
		t.Errorf("s32 = %d, want O(32)", s32)
	}
}

func sepSize(t *testing.T, k int) int {
	t.Helper()
	g := graph.Grid2D(k, k, graph.UnitWeights)
	r, err := NestedDissection(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return r.SeparatorSize()
}

// Property: for random graphs, nested dissection always yields a valid
// cover of the vertices with separated cousins.
func TestQuickNestedDissectionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := graph.RandomGNP(n, 3.0/float64(n), graph.UnitWeights, rng)
		h := 1 + rng.Intn(3)
		r, err := NestedDissection(g, h, seed)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for lbl := 1; lbl <= r.N; lbl++ {
			for _, v := range r.Super[lbl] {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return CheckSeparation(g, r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFMImprovesBadPartition(t *testing.T) {
	// Start a 1D path with an alternating partition (terrible cut) and
	// verify FM improves it drastically.
	g := graph.Path(40, graph.UnitWeights)
	w := fromGraph(g)
	part := make([]int8, 40)
	for v := range part {
		part[v] = int8(v % 2)
	}
	before := w.cutWeight(part)
	fmRefine(w, part, defaultBisectOptions())
	after := w.cutWeight(part)
	if after >= before {
		t.Errorf("FM did not improve cut: %d -> %d", before, after)
	}
	if after > 6 {
		t.Errorf("FM cut = %d, want small on a path", after)
	}
	// Balance must be maintained.
	w0, w1 := w.sideWeights(part)
	if w0 < 12 || w1 < 12 {
		t.Errorf("FM destroyed balance: %d vs %d", w0, w1)
	}
}

func TestComputeStats(t *testing.T) {
	g := graph.Grid2D(10, 10, graph.UnitWeights)
	r, err := NestedDissection(g, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g, r)
	if s.H != 3 || s.N != 7 {
		t.Errorf("h=%d N=%d", s.H, s.N)
	}
	if s.TopSeparator != r.SeparatorSize() {
		t.Error("top separator mismatch")
	}
	if s.MinLeaf < 0 || s.MaxLeaf < s.MinLeaf {
		t.Errorf("leaf sizes min=%d max=%d", s.MinLeaf, s.MaxLeaf)
	}
	total := s.SumSeparators
	for i := 1; i <= 4; i++ {
		total += r.Sizes[i]
	}
	if total != 100 {
		t.Errorf("stats vertices = %d, want 100", total)
	}
	if s.LeafImbalance < 1 {
		t.Errorf("imbalance = %v, want ≥ 1", s.LeafImbalance)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestComputeStatsEmptyGraph(t *testing.T) {
	g := graph.New(0)
	r, err := NestedDissection(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g, r)
	if s.EmptySupernodes != 3 {
		t.Errorf("empty supernodes = %d, want 3", s.EmptySupernodes)
	}
}

func BenchmarkNestedDissectionSequential(b *testing.B) {
	g := graph.Grid2D(32, 32, graph.UnitWeights)
	for i := 0; i < b.N; i++ {
		if _, err := NestedDissection(g, 4, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBisect(b *testing.B) {
	g := graph.Grid2D(48, 48, graph.UnitWeights)
	w := fromGraph(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		bisect(w, defaultBisectOptions(), rng)
	}
}

func BenchmarkVertexSeparator(b *testing.B) {
	g := graph.Grid2D(32, 32, graph.UnitWeights)
	w := fromGraph(g)
	part := bisect(w, defaultBisectOptions(), rand.New(rand.NewSource(8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexSeparator(g, part)
	}
}
