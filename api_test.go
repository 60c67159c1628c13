package sparseapsp

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sparseapsp/internal/apsp"
)

func TestSolveAutoSelection(t *testing.T) {
	g := Grid2D(6, 6, UnitWeights)
	cases := []struct {
		p    int
		want Algorithm
	}{
		{0, SeqSuperFW},
		{1, SeqSuperFW},
		{9, Sparse2D},
		{49, Sparse2D},
		{16, DenseDC}, // square but not (2^h-1)²
	}
	for _, c := range cases {
		res, err := Solve(g, Options{P: c.p})
		if err != nil {
			t.Errorf("p=%d: %v", c.p, err)
			continue
		}
		if res.Algorithm != c.want {
			t.Errorf("p=%d: picked %s, want %s", c.p, res.Algorithm, c.want)
		}
	}
}

func TestSolveAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomGNP(40, 0.1, RandomWeights(rng, 1, 10), rng)
	ref, err := Solve(g, Options{Algorithm: SeqFW})
	if err != nil {
		t.Fatal(err)
	}
	algs := []struct {
		a Algorithm
		p int
	}{
		{SeqSuperFW, 0}, {SeqJohnson, 0},
		{Sparse2D, 9}, {DenseDC, 9}, {Dense2DFW, 9},
	}
	for _, c := range algs {
		res, err := Solve(g, Options{Algorithm: c.a, P: c.p})
		if err != nil {
			t.Errorf("%s: %v", c.a, err)
			continue
		}
		if !res.Dist.EqualTol(ref.Dist, 1e-9) {
			t.Errorf("%s: diverges from classical FW", c.a)
		}
	}
}

func TestSolveRejectsInvalidSparseP(t *testing.T) {
	g := Grid2D(8, 8, UnitWeights)
	cases := []struct {
		p    int
		want []string
	}{
		// Between two valid sizes: name both neighbors.
		{50, []string{
			"P=50 is not a valid sparse machine size",
			"p = (2^h-1)^2",
			"1, 9, 49, 225, 961",
			"nearest valid sizes are 49 and 225",
		}},
		// Below the smallest nontrivial size.
		{2, []string{
			"P=2 is not a valid sparse machine size",
			"nearest valid sizes are 1 and 9",
		}},
		// Just past a valid size.
		{226, []string{"nearest valid sizes are 225 and 961"}},
	}
	for _, c := range cases {
		_, err := Solve(g, Options{Algorithm: Sparse2D, P: c.p})
		if err == nil {
			t.Errorf("P=%d: expected an error", c.p)
			continue
		}
		for _, frag := range c.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("P=%d: error %q missing %q", c.p, err, frag)
			}
		}
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(NewGraph(2), Options{Algorithm: "nope"}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestSolveSparseReportsSeparator(t *testing.T) {
	g := Grid2D(12, 12, UnitWeights)
	res, err := Solve(g, Options{P: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeparatorSize <= 0 || res.SeparatorSize > 36 {
		t.Errorf("separator size = %d", res.SeparatorSize)
	}
	if res.Report.Critical.Bandwidth == 0 {
		t.Error("no communication recorded")
	}
}

func TestPublicGraphAPI(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	res, err := Solve(g, Options{Algorithm: SeqJohnson})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.At(0, 2) != 4 {
		t.Errorf("d(0,2) = %v, want 4", res.Dist.At(0, 2))
	}
	if !math.IsInf(Inf, 1) {
		t.Error("Inf is not +infinity")
	}
}

func TestValidProcessorCountsExported(t *testing.T) {
	got := ValidProcessorCounts(250)
	if len(got) != 4 || got[3] != 225 {
		t.Errorf("ValidProcessorCounts(250) = %v", got)
	}
}

func TestSeparatorSizeGrid(t *testing.T) {
	s, err := SeparatorSize(Grid2D(16, 16, UnitWeights), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 32 {
		t.Errorf("grid separator = %d, want Θ(16)", s)
	}
}

func TestSolveWithPathsOptionsAcrossSolvers(t *testing.T) {
	g := Grid2D(7, 7, UnitWeights)
	want, _ := apsp.FloydWarshall(g)
	for _, opts := range []Options{
		{Algorithm: SeqFW},
		{Algorithm: SeqJohnson},
		{Algorithm: SeqSuperFW},
		{Algorithm: Sparse2D, P: 9},
	} {
		pr, err := SolveWithPathsOptions(g, opts)
		if err != nil {
			t.Errorf("%s: %v", opts.Algorithm, err)
			continue
		}
		if !pr.Dist.EqualTol(want, 1e-9) {
			t.Errorf("%s: distances diverge from FloydWarshall", opts.Algorithm)
			continue
		}
		for _, q := range [][2]int{{0, 48}, {6, 42}, {3, 3}, {48, 0}} {
			path := pr.Path(q[0], q[1])
			if len(path) == 0 || path[0] != q[0] || path[len(path)-1] != q[1] {
				t.Errorf("%s: Path(%d,%d) = %v: bad endpoints", opts.Algorithm, q[0], q[1], path)
				continue
			}
			if got, ref := PathWeight(g, path), want.At(q[0], q[1]); math.Abs(got-ref) > 1e-9 {
				t.Errorf("%s: Path(%d,%d) weight %g, want %g", opts.Algorithm, q[0], q[1], got, ref)
			}
		}
	}
}

func TestSolveWithPathsOptionsValidates(t *testing.T) {
	if _, err := SolveWithPathsOptions(nil, Options{}); err == nil {
		t.Error("nil graph: want error")
	}
	neg := NewGraph(2)
	neg.AddEdge(0, 1, -3)
	if _, err := SolveWithPathsOptions(neg, Options{}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative edge: err = %v, want negative-cycle error", err)
	}
	g := Grid2D(4, 4, UnitWeights)
	if _, err := SolveWithPathsOptions(g, Options{Algorithm: Sparse2D, P: 16}); err == nil {
		t.Error("invalid sparse P: want error")
	}
	if _, err := SolveWithPathsOptions(g, Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm: want error")
	}
}

// TestSparseSolvesRefuseNegativeWeights: a sparse solve, whether asked
// for or picked by Auto, refuses a negative edge weight as
// SolveWithPathsOptions does, and a NaN or infinite one, while a zero
// weight solves: the report of a sparse solve is its plan's price, which
// holds for finite non-negative weights only.
func TestSparseSolvesRefuseNegativeWeights(t *testing.T) {
	for w, want := range map[float64]string{-1: "negative", math.NaN(): "not finite", math.Inf(1): "not finite", 0: ""} {
		g := Grid2D(8, 8, UnitWeights)
		g.AddEdge(0, 9, w) // vertices 0 and 9 are not adjacent in the grid
		for _, alg := range []Algorithm{Sparse2D, Auto} {
			_, err := Solve(g, Options{Algorithm: alg, P: 49})
			if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Errorf("%s, edge weight %g: err = %v, want %q", alg, w, err, want)
			}
			if want == "" && err != nil {
				t.Errorf("%s, edge weight %g: %v", alg, w, err)
			}
		}
	}
}

func TestNewOracleServesQueries(t *testing.T) {
	g := Grid2D(6, 6, UnitWeights)
	o, err := NewOracle(g, Options{Algorithm: SeqJohnson})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := apsp.FloydWarshall(g)
	d, err := o.Dist(0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if ref := want.At(0, 35); d != ref {
		t.Errorf("Dist(0,35) = %g, want %g", d, ref)
	}
	paths, err := o.BatchPath([][2]int{{0, 35}, {5, 30}})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range [][2]int{{0, 35}, {5, 30}} {
		if w := PathWeight(g, paths[i]); w != want.At(q[0], q[1]) {
			t.Errorf("batch path %d weight %g, want %g", i, w, want.At(q[0], q[1]))
		}
	}
}

func TestNewOracleRegistryCoalescesAndCounts(t *testing.T) {
	g := Grid2D(5, 5, UnitWeights)
	reg := NewOracleRegistry(Options{Algorithm: SeqFW}, 0)
	if _, err := reg.Get(g); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(g.Clone()); err != nil { // same fingerprint
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Solves != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 solve, 1 hit, 1 miss", st)
	}
	if fp := GraphFingerprint(g); fp != GraphFingerprint(g.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	// Sequential solvers move no wire traffic.
	if st.WordsMoved != 0 {
		t.Errorf("SeqFW registry moved %d words, want 0", st.WordsMoved)
	}
}

// TestOracleRegistryAccountsWordsMoved: a registry backed by the
// distributed sparse solver must surface the solve's wire traffic in
// Stats, with the per-phase breakdown partitioning the total.
func TestOracleRegistryAccountsWordsMoved(t *testing.T) {
	g := Grid2D(6, 6, UnitWeights)
	reg := NewOracleRegistry(Options{P: 9}, 0)
	if _, err := reg.Get(g); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.WordsMoved <= 0 {
		t.Fatalf("distributed solve reported %d words moved, want > 0", st.WordsMoved)
	}
	var sum int64
	for _, w := range st.WordsByPhase {
		sum += w
	}
	if sum != st.WordsMoved {
		t.Errorf("per-phase words sum %d != total %d", sum, st.WordsMoved)
	}
}

// TestServedWirePinned pins what a zero-value Options actually ships,
// on the end-to-end benchmark's own structures (bench/gen.go: integer
// weights 1..9): the critical-path words and messages BENCHMARK.json
// gates as comm_words / comm_msgs. The zero value is the demand-pruned
// wire, and the dense wire agrees to the bit. The machine reference
// runs these two shapes in internal/apsp's TestExecutorEquality.
func TestServedWirePinned(t *testing.T) {
	w := func(seed int64) WeightFn {
		rng := rand.New(rand.NewSource(seed))
		return func(u, v int) float64 { return float64(1 + rng.Intn(9)) }
	}
	for _, tc := range []struct {
		name               string
		g                  *Graph
		p                  int
		words, msgs, total int64
	}{
		{"grid32x32", Grid2D(32, 32, w(1)), 49, 46549, 17, 128},
		{"cycle800", Cycle(800, w(2)), 961, 1669, 32, 2157},
	} {
		def, err := Solve(tc.g, Options{P: tc.p, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := def.Report
		if r.Critical.Bandwidth != tc.words || r.Critical.Latency != tc.msgs || r.TotalMessages != tc.total {
			t.Errorf("%s: critical words/messages, total messages = %d/%d, %d; want %d/%d, %d",
				tc.name, r.Critical.Bandwidth, r.Critical.Latency, r.TotalMessages, tc.words, tc.msgs, tc.total)
		}
		got, err := Solve(tc.g, Options{P: tc.p, Seed: 42, Wire: WirePruned})
		if err != nil {
			t.Fatalf("%s/pruned: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Dist, def.Dist) || !reflect.DeepEqual(got.Report, def.Report) {
			t.Errorf("%s: explicit WirePruned differs from the zero-value solve", tc.name)
		}
		dense, err := Solve(tc.g, Options{P: tc.p, Seed: 42, Wire: WireDense})
		if err != nil {
			t.Fatalf("%s/dense: %v", tc.name, err)
		}
		for i, v := range dense.Dist.V {
			if math.Float64bits(v) != math.Float64bits(def.Dist.V[i]) {
				t.Fatalf("%s: dense-wire distance %d differs from the default wire's", tc.name, i)
			}
		}
		// Critical, not total, messages: which members dropMirrors removes
		// depends on each wire's trees (E44).
		if d := dense.Report.Critical; r.Critical.Bandwidth > d.Bandwidth || r.Critical.Latency > d.Latency {
			t.Errorf("%s: default wire's critical path costs more than dense's", tc.name)
		}
	}
}

// TestReweightBuildsNoPlan: a repair executes no solve, so it needs no
// plan. A default registry — sequential SuperFW, the plan cache unused by
// its solves — reweights a grid without building one, and serves what a
// fresh Get of the edited graph serves: the same distances bit for bit,
// and shortest paths.
func TestReweightBuildsNoPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Grid2D(16, 16, func(u, v int) float64 { return float64(1 + rng.Intn(9)) })
	reg := NewOracleRegistry(Options{Seed: 42}, 0)
	if _, err := reg.Get(g); err != nil {
		t.Fatal(err)
	}
	e := g.Edges()
	edits := []EdgeEdit{{U: e[10].U, V: e[10].V, W: e[10].W + 3}, {U: e[200].U, V: e[200].V, W: 1}}
	_, o, st, err := reg.Reweight(GraphFingerprint(g), edits)
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		t.Fatalf("two edits fell back: %+v", st)
	}
	if s := reg.Stats(); s.PlanBuilds != 0 || s.PlanHits != 0 || s.Reweights != 1 {
		t.Errorf("after one reweight: %d plan builds, %d plan hits, %d reweights; want 0, 0, 1", s.PlanBuilds, s.PlanHits, s.Reweights)
	}
	g2 := o.Graph()
	fresh, err := NewOracleRegistry(Options{Seed: 42}, 0).Get(g2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g2.N(); u++ {
		for v := 0; v < g2.N(); v++ {
			d, _ := o.Dist(u, v)
			want, _ := fresh.Dist(u, v)
			if math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("Dist(%d,%d) = %v, a fresh Get serves %v", u, v, d, want)
			}
			p, _ := o.Path(u, v)
			if len(p) == 0 || p[0] != u || p[len(p)-1] != v || PathWeight(g2, p) != want {
				t.Fatalf("Path(%d,%d) = %v is no shortest path of weight %v", u, v, p, want)
			}
		}
	}
}

// TestSolveRejectsNonPositiveP: every distributed solver answers a
// machine size below one with an error, never a panic (2D-DC divided by
// zero, 2D Floyd–Warshall took the square root of a negative number),
// and the sparse solver's error is the one that lists the valid sizes.
func TestSolveRejectsNonPositiveP(t *testing.T) {
	g := Grid2D(4, 4, UnitWeights)
	for _, alg := range []Algorithm{Sparse2D, DenseDC, Dense2DFW} {
		for _, p := range []int{0, -4} {
			_, err := Solve(g, Options{Algorithm: alg, P: p})
			if err == nil {
				t.Errorf("%s at P=%d: no error", alg, p)
			} else if alg == Sparse2D && !strings.Contains(err.Error(), "not a valid sparse machine size") {
				t.Errorf("%s at P=%d: %v, want the valid sizes", alg, p, err)
			}
		}
	}
}
