package apsp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

// goldenFamilies are the graphs the path-identity golden and the
// symmetry test run on: the five families the serving benchmark and
// the repair tests use, each with integer weights 0..4 (zero-weight
// edges make the tight-edge graph cyclic) and with real-valued weights
// (path sums round, so solvers may disagree in the last bit).
func goldenFamilies() []namedGraph {
	var out []namedGraph
	for _, kind := range []string{"int", "real"} {
		rng := rand.New(rand.NewSource(1308))
		w := graph.RandomWeights(rng, 0.5, 10)
		if kind == "int" {
			w = func(u, v int) float64 { return float64(rng.Intn(5)) }
		}
		out = append(out,
			namedGraph{"grid/" + kind, graph.Grid2D(12, 12, w)},
			namedGraph{"gnp/" + kind, graph.RandomGNP(150, 4.0/150, w, rng)},
			namedGraph{"cycle/" + kind, graph.Cycle(97, w)},
			namedGraph{"star/" + kind, graph.Star(60, w)},
			namedGraph{"path/" + kind, graph.Path(80, w)},
		)
	}
	return out
}

// pathsHash is FNV-64a over every Path(u,v) in row-major pair order:
// the hop count (-1 for no path) and then each vertex. Two results
// with equal hashes answer every path query byte for byte the same.
func pathsHash(pr *PathResult) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(x)))
		h.Write(buf[:])
	}
	for u := 0; u < pr.N(); u++ {
		for v := 0; v < pr.N(); v++ {
			p := pr.Path(u, v)
			put(len(p) - 1)
			for _, x := range p {
				put(x)
			}
		}
	}
	return h.Sum64()
}

// TestPathIdentityGolden pins every served path. The hashes were taken
// at the last commit whose table was source-major (row u), so they
// hold the target-major table to byte-identical replies: "sparse" is
// SuccessorsFromDist over the distributed solver's distances (what
// apspd serves), "fw" is FloydWarshallPaths' in-loop successors.
func TestPathIdentityGolden(t *testing.T) {
	want := map[string][2]uint64{
		"grid/int":   {0xcccff3961671712d, 0x369508c0a3b66275},
		"gnp/int":    {0x8a9ea0d4b904f21b, 0x42dac8579760bc4},
		"cycle/int":  {0xe36c9c996de499c5, 0xe36c9c996de499c5},
		"star/int":   {0x2d8a8996c26cac95, 0x2d8a8996c26cac95},
		"path/int":   {0x8e11f67612e65d65, 0x8e11f67612e65d65},
		"grid/real":  {0xda3621d34ca8a485, 0xda3621d34ca8a485},
		"gnp/real":   {0x1dbe7fb3eac61b34, 0x1dbe7fb3eac61b34},
		"cycle/real": {0x4e3b7c52748a2605, 0x4e3b7c52748a2605},
		"star/real":  {0x2d8a8996c26cac95, 0x2d8a8996c26cac95},
		"path/real":  {0x8e11f67612e65d65, 0x8e11f67612e65d65},
	}
	for _, f := range goldenFamilies() {
		res, err := SparseAPSPWith(f.g, 9, SparseOptions{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		pr, err := SuccessorsFromDist(f.g, res.Dist)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got := [2]uint64{pathsHash(pr), pathsHash(FloydWarshallPaths(f.g))}
		if got != want[f.name] {
			t.Errorf("%s: path hashes {sparse, fw} = {%#x, %#x}, want {%#x, %#x}",
				f.name, got[0], got[1], want[f.name][0], want[f.name][1])
		}
	}
}

// serialSuccessors builds the table of g one target per rebuild call: a
// single-target rebuild never leaves the calling goroutine, so this is
// the one-worker build whatever the pool holds.
func serialSuccessors(t *testing.T, g *graph.Graph, d *semiring.Matrix) *Successors {
	t.Helper()
	s := newSuccessors(g)
	for v := 0; v < g.N(); v++ {
		if err := s.rebuild(g, matrixRows(d), []int{v}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSuccessorsWorkerInvariance: targets are extracted in parallel
// into disjoint, word-aligned rows, so the table must not depend on how
// many workers ran or how they interleaved. Compared against a
// single-goroutine build of the same rows, at GOMAXPROCS 1 and 4 (run
// under -race).
func TestSuccessorsWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range goldenFamilies() {
		d, _ := FloydWarshall(f.g)
		serial := serialSuccessors(t, f.g, d)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			pr, err := SuccessorsFromDist(f.g, d)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", f.name, procs, err)
			}
			if !reflect.DeepEqual(pr.next.words, serial.words) {
				t.Errorf("%s: table at GOMAXPROCS=%d differs from the serial build", f.name, procs)
			}
		}
	}
}

// TestSuccessorsEdgeCases: an all-zero cycle (every edge tight in both
// directions) still yields finite acyclic paths, disconnected pairs
// yield nil, and both survive VerifyPaths.
func TestSuccessorsEdgeCases(t *testing.T) {
	zero := graph.Cycle(64, func(u, v int) float64 { return 0 })
	two := graph.New(9)
	for v := 0; v+1 < 4; v++ {
		two.AddEdge(v, v+1, 2)
		two.AddEdge(5+v, 6+v, 0)
	}
	for name, g := range map[string]*graph.Graph{"zero-cycle": zero, "two-components": two} {
		d, _ := FloydWarshall(g)
		pr, err := SuccessorsFromDist(g, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyPaths(g, pr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				p := pr.Path(u, v)
				if math.IsInf(d.At(u, v), 1) != (p == nil) {
					t.Fatalf("%s: Path(%d,%d) = %v with d = %g", name, u, v, p, d.At(u, v))
				}
				if len(p) > g.N() {
					t.Fatalf("%s: Path(%d,%d) has %d vertices", name, u, v, len(p))
				}
			}
		}
	}
	if p := FloydWarshallPaths(two).Path(0, 8); p != nil {
		t.Errorf("FloydWarshallPaths: path across components = %v", p)
	}
}

// TestSuccessorsErrorIsDeterministic: with inconsistent entries under
// several targets — far enough apart to land on different workers — the
// reported failure is always the lowest-numbered target's.
func TestSuccessorsErrorIsDeterministic(t *testing.T) {
	g := graph.Grid2D(16, 16, graph.UnitWeights)
	d, _ := FloydWarshall(g)
	n := g.N()
	for _, v := range []int{250, 131, 17, 199} {
		u := (v + 40) % n
		d.Set(u, v, d.At(u, v)-0.5)
		d.Set(v, u, d.At(v, u)-0.5)
	}
	var first string
	for i := 0; i < 25; i++ {
		_, err := SuccessorsFromDist(g, d)
		if err == nil {
			t.Fatal("inconsistent distances: want error")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "d(57,17)=9.5 ") || !strings.Contains(first, "is not explained by any edge of the graph (inconsistent distances)") {
				t.Fatalf("error = %q, want the failure of target 17", first)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: error %q, first run said %q", i, err, first)
		}
	}
}

// TestTightSum pins the tolerance test at its edges: it was reshaped
// to fit the inliner's budget, and Inf must stay equal only to Inf.
func TestTightSum(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		sum, dist float64
		want      bool
	}{
		{3, 3, true},
		{inf, inf, true},
		{inf, 3, false},
		{3, inf, false},
		{1e300, inf, false},
		{0, 0, true},
		{1e-10, 0, true},
		{1e-8, 0, false},
		{0.5 + 1e-10, 0.5, true},
		{1e6 + 1e-4, 1e6, true},
		{1e6 + 1e-2, 1e6, false},
		{1e6 - 1e-4, 1e6, true},
		{math.NaN(), 3, false},
		{3, math.NaN(), false},
	} {
		if got := tightSum(c.sum, c.dist); got != c.want {
			t.Errorf("tightSum(%g, %g) = %v, want %v", c.sum, c.dist, got, c.want)
		}
	}
}

// TestSolveDistSymmetric states the precondition target-major
// extraction and RepairRows share: they read d(x,v) as row v entry x.
// Every matrix-based solver returns a bit-symmetric matrix on an
// undirected graph even when path sums round, because a ⊕ b⊗c and its
// mirror image add the same two floats. (SuperFW and the sparse solver
// assemble each mirror as its owned block's transpose, so for them this
// holds by construction; TestR3SinkComputedOnce checks the blocks
// themselves.) Johnson is the exception — its
// Dijkstras sum a path from opposite ends — and what covers it is the
// extraction tolerance: its matrix, and a symmetric one pushed off by
// one ulp in one entry, still yield tables that pass VerifyPaths.
func TestSolveDistSymmetric(t *testing.T) {
	solvers := map[string]func(g *graph.Graph) (*semiring.Matrix, error){
		"fw":      func(g *graph.Graph) (*semiring.Matrix, error) { d, _ := FloydWarshall(g); return d, nil },
		"fwpaths": func(g *graph.Graph) (*semiring.Matrix, error) { return FloydWarshallPaths(g).Dist, nil },
		"superfw": func(g *graph.Graph) (*semiring.Matrix, error) {
			r, err := SuperFW(g, 3, 42)
			if err != nil {
				return nil, err
			}
			return r.Dist, nil
		},
		"2dfw": func(g *graph.Graph) (*semiring.Matrix, error) { return distOf(Dist2DFW(g, 4)) },
		"dc":   func(g *graph.Graph) (*semiring.Matrix, error) { return distOf(DCAPSP(g, 4, 1)) },
		"sparse": func(g *graph.Graph) (*semiring.Matrix, error) {
			return distOf(SparseAPSPWith(g, 9, SparseOptions{Seed: 42}))
		},
		"sparse-machine-dense-p49": func(g *graph.Graph) (*semiring.Matrix, error) {
			return distOf(machineSolve(g, 49, SparseOptions{Seed: 42, Wire: WireDense}))
		},
	}
	for _, f := range goldenFamilies() {
		if !strings.HasSuffix(f.name, "/real") {
			continue
		}
		n := f.g.N()
		for name, solve := range solvers {
			d, err := solve(f.g)
			if err != nil {
				t.Errorf("%s %s: %v", f.name, name, err)
				continue
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if math.Float64bits(d.At(u, v)) != math.Float64bits(d.At(v, u)) {
						t.Errorf("%s %s: d(%d,%d)=%v but d(%d,%d)=%v", f.name, name, u, v, d.At(u, v), v, u, d.At(v, u))
						u = n
						break
					}
				}
			}
		}
		ulp, _ := FloydWarshall(f.g)
		u, v := 1, n-2
		if math.IsInf(ulp.At(u, v), 1) {
			t.Fatalf("%s: pair (%d,%d) is disconnected, pick another", f.name, u, v)
		}
		ulp.Set(u, v, math.Nextafter(ulp.At(u, v), math.Inf(1)))
		johnson, err := Johnson(f.g)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*semiring.Matrix{"one-ulp": ulp, "johnson": johnson} {
			pr, err := SuccessorsFromDist(f.g, d)
			if err != nil {
				t.Errorf("%s %s: %v", f.name, name, err)
				continue
			}
			if err := VerifyPaths(f.g, pr); err != nil {
				t.Errorf("%s %s: %v", f.name, name, err)
			}
		}
	}
}

func distOf(r *DistResult, err error) (*semiring.Matrix, error) {
	if err != nil {
		return nil, err
	}
	return r.Dist, nil
}

// TestRepairRebuildsRows: after random edits, the repaired table
// passes VerifyPaths, and every row Repair rebuilt — every row that
// differs from the previous table — is exactly what a fresh extraction
// on the edited graph builds for that target. (A row Repair left alone
// may differ from the fresh one: an edit that only creates a tie changes
// no distance and breaks no old tree, but a fresh breadth-first walk may
// meet the new tight edge first.) The repaired table shares the previous
// one's adjacency — a reweight never changes structure, and the fresh
// extraction's own adjacency proves it equal — but not its words, and the
// previous table is left as it was.
func TestRepairRebuildsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1568))
	w := func(u, v int) float64 { return float64(3 + rng.Intn(7)) }
	// A slice, not a map: the edits come from the shared rng, so the
	// order the graphs are visited in must not vary between runs.
	for _, f := range []namedGraph{
		{"grid", graph.Grid2D(10, 10, w)},
		{"gnp", graph.RandomGNP(90, 4.0/90, w, rng)},
		{"tree", graph.RandomTree(80, w, rng)},
	} {
		name, g := f.name, f.g
		n := g.N()
		sopts := SparseOptions{Seed: 42, Plans: NewPlanCache()}
		prev := solvePaths(t, g, 9, sopts)
		for round, kind := range []string{"dec", "inc", "mixed", "mixed", "cancel"} {
			var edits []EdgeEdit
			var pair [2]int
			if kind == "cancel" {
				edits, pair = cancellingEdits(t, g)
			} else {
				edits = pickEdits(g, rng, 1+rng.Intn(3), kind)
			}
			before := slices.Clone(prev.next.words)
			got, g2, st, err := RepairWithOptions(g, prev, edits, 9, sopts, 1)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if err := VerifyPaths(g2, got); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			fresh, err := SuccessorsFromDist(g2, got.Dist)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if got.next.adj != prev.next.adj {
				t.Errorf("%s round %d: repair rebuilt the adjacency instead of sharing it", name, round)
			}
			if !reflect.DeepEqual(got.next.adj, fresh.next.adj) || got.next.Bits() != fresh.next.Bits() {
				t.Errorf("%s round %d: the shared adjacency is not the edited graph's", name, round)
			}
			if &got.next.words[0] == &prev.next.words[0] || !slices.Equal(prev.next.words, before) {
				t.Errorf("%s round %d: repair wrote into the previous table", name, round)
			}
			changed := 0
			for v := 0; v < n; v++ {
				row := got.next.row(v)
				if slices.Equal(row, prev.next.row(v)) {
					continue
				}
				changed++
				if !slices.Equal(row, fresh.next.row(v)) {
					t.Errorf("%s round %d: rebuilt row %d differs from a fresh extraction", name, round, v)
				}
			}
			if changed > st.RepairedColumns {
				t.Errorf("%s round %d: %d rows changed but only %d were rebuilt", name, round, changed, st.RepairedColumns)
			}
			if a, b := pair[0], pair[1]; kind == "cancel" && (st.Writes == 0 || got.Dist.At(a, b) != prev.Dist.At(a, b)) {
				t.Errorf("%s round %d: d(%d,%d) %v → %v with %d writes, want a written pair that cancels", name, round, a, b, prev.Dist.At(a, b), got.Dist.At(a, b), st.Writes)
			}
			g, prev = g2, got
		}
	}
}

// cancellingEdits finds a vertex v with neighbours a and b such that
// a–v–b is a shortest a–b path and the mixed batch lowering {a,v} by
// one and raising {v,b} by one leaves d(a,b) unchanged, and returns
// that batch: the decrease phase writes d(a,b) one lower and the
// increase phase writes it back, so the pair is written twice and
// does not change.
func cancellingEdits(t *testing.T, g *graph.Graph) ([]EdgeEdit, [2]int) {
	t.Helper()
	d := mustJohnson(t, g)
	for v := 0; v < g.N(); v++ {
		for _, ea := range g.Adj(v) {
			for _, eb := range g.Adj(v) {
				a, b := ea.To, eb.To
				if a == b || ea.W < 1 || ea.W+eb.W != d.At(a, b) {
					continue
				}
				edits := []EdgeEdit{{U: a, V: v, W: ea.W - 1}, {U: v, V: b, W: eb.W + 1}}
				ed, err := ApplyEdits(g, edits)
				if err != nil {
					t.Fatal(err)
				}
				if mustJohnson(t, ed.Graph).At(a, b) == d.At(a, b) {
					return edits, [2]int{a, b}
				}
			}
		}
	}
	t.Fatal("no shortest a–v–b path whose distance the batch leaves unchanged")
	return nil, [2]int{}
}

// BenchmarkSuccessorsFromDist times the extraction kernel alone on the
// three ingest shapes of the end-to-end benchmark. One relaxation is
// one tight-edge test: each target scans every adjacency entry of its
// component once, so a full extraction does n·2m of them.
func BenchmarkSuccessorsFromDist(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := integerWeights(rng, 9)
	for _, c := range []namedGraph{
		{"grid1024", graph.Grid2D(32, 32, w)},
		{"gnp768", graph.RandomGNP(768, 4.0/768, w, rng)},
		{"cycle800", graph.Cycle(800, w)},
	} {
		res, err := SuperFW(c.g, 3, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SuccessorsFromDist(c.g, res.Dist); err != nil {
					b.Fatal(err)
				}
			}
			relax := float64(c.g.N()) * 2 * float64(c.g.M())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/relax, "ns/relax")
		})
	}
}

// refTree is the vertex-id successor row the slot table replaced: the
// same backward breadth-first walk over tight edges, storing the parent
// itself (-1 for none).
func refTree(g *graph.Graph, distV []float64, v int) []int {
	next := make([]int, g.N())
	for u := range next {
		next[u] = -1
	}
	next[v] = v
	for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
		w := queue[0]
		for _, e := range g.Adj(w) {
			if next[e.To] == -1 && tightSum(e.W+distV[w], distV[e.To]) {
				next[e.To] = w
				queue = append(queue, e.To)
			}
		}
	}
	return next
}

// columnFamilies are the degree profiles the per-column layout has an
// edge in — leaves (no bits), cycles (one), grids (columns of 1 and 2
// bits side by side), hubs past 2⁸ neighbours next to leaves, isolated
// vertices, several components — each under integer weights, real-valued
// ones (path sums round) and weights in {0, 1, 2} (zero-weight edges make
// the tight-edge graph cyclic).
func columnFamilies() []namedGraph {
	var out []namedGraph
	for _, kind := range []string{"int", "real", "zero"} {
		rng := rand.New(rand.NewSource(2408))
		var w graph.WeightFn
		switch kind {
		case "int":
			w = func(u, v int) float64 { return float64(1 + rng.Intn(9)) }
		case "real":
			w = graph.RandomWeights(rng, 0.5, 10)
		default:
			w = func(u, v int) float64 { return float64(rng.Intn(3)) }
		}
		islands := graph.New(40) // two paths, a triangle and 25 isolated vertices
		for v := 0; v+1 < 6; v++ {
			islands.AddEdge(v, v+1, w(v, v+1))
			islands.AddEdge(6+v, 7+v, w(6+v, 7+v))
		}
		islands.AddEdge(12, 13, w(12, 13))
		islands.AddEdge(13, 14, w(13, 14))
		islands.AddEdge(12, 14, w(12, 14))
		hub := graph.Star(300, w) // hub of degree 299, and a second one of degree 5 among its leaves
		for v := 2; v < 6; v++ {
			hub.AddEdge(1, v, w(1, v))
		}
		out = append(out,
			namedGraph{"grid/" + kind, graph.Grid2D(9, 7, w)},
			namedGraph{"cycle/" + kind, graph.Cycle(67, w)},
			namedGraph{"star/" + kind, graph.Star(60, w)},
			namedGraph{"tree/" + kind, graph.RandomTree(90, w, rng)},
			namedGraph{"gnp/" + kind, graph.RandomGNP(120, 2.0/120, w, rng)}, // mean degree 2: isolated vertices and small components
			namedGraph{"islands/" + kind, islands},
			namedGraph{"hub/" + kind, hub},
		)
	}
	return append(out, namedGraph{"edgeless", graph.New(5)}, namedGraph{"one-edge", graph.Path(2, graph.UnitWeights)})
}

// columnTableBytes is what a table must retain, from first principles:
// n rows of Σ bits.Len(deg−1) bits padded to whole words, plus the int32
// arrays that decode them — n+1 neighbour offsets and n+1 bit offsets,
// the 2m half-edges twice (neighbour, reverse slot) and n component
// labels. Also returns the widest column.
func columnTableBytes(g *graph.Graph) (bytes int64, maxBits int) {
	n, rowBits := g.N(), 0
	for u := 0; u < n; u++ {
		w := 0
		if deg := g.Degree(u); deg > 1 {
			w = bits.Len(uint(deg - 1))
		}
		rowBits += w
		maxBits = max(maxBits, w)
	}
	return int64(n)*int64((rowBits+63)/64)*8 + int64(2*(n+1)+4*g.M()+n)*4, maxBits
}

// TestSuccessorsColumnWidths: the width of a column as a function of its
// degree, and on every family the packed table held entry for entry and
// path for path against the UNPACKED successorRow output of each target —
// which itself must name the parents of a vertex-id tree built here with
// no slots at all. Entries the component labels call "none" must be
// exactly the −1 entries of the unpacked rows. The table holds the bytes
// the degree sequence predicts, the pooled build equals the one-goroutine
// build word for word (run under -race), and the classical loop's table
// passes VerifyPaths on the same graphs.
func TestSuccessorsColumnWidths(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {256, 8}, {257, 9}, {65536, 16}, {65537, 17}} {
		if got := slotWidth(c[0]); got != c[1] {
			t.Errorf("slotWidth(degree %d) = %d, want %d", c[0], got, c[1])
		}
	}
	wantBits := map[string]int{"grid": 2, "cycle": 1, "star": 6, "tree": -1, "gnp": -1, "islands": 1, "hub": 9, "edgeless": 0, "one-edge": 0}
	for _, f := range columnFamilies() {
		n := f.g.N()
		d, _ := FloydWarshall(f.g)
		pr, err := SuccessorsFromDist(f.g, d)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		s := pr.next
		wantBytes, maxBits := columnTableBytes(f.g)
		if want := wantBits[strings.Split(f.name, "/")[0]]; s.Bits() != maxBits || (want >= 0 && maxBits != want) {
			t.Errorf("%s: widest column %d bits, degree sequence says %d, family %d", f.name, s.Bits(), maxBits, want)
		}
		if got := s.Bytes(); got != wantBytes {
			t.Errorf("%s: table holds %d bytes, want %d", f.name, got, wantBytes)
		}
		if !slices.Equal(s.words, serialSuccessors(t, f.g, d).words) {
			t.Errorf("%s: pooled build differs from the serial build", f.name)
		}

		edges := s.adj.weigh(f.g)
		slots, queue := make([]int32, n), make([]int32, n+1)
		for v := 0; v < n; v++ {
			if err := successorRow(edges, s.adj, d.V[v*n:(v+1)*n], v, slots, queue, integralWeights(edges)); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			tree := refTree(f.g, d.V[v*n:(v+1)*n], v)
			next := func(u int) int { // the hop the unpacked row names, -1 for none
				if u == v {
					return v
				}
				if slots[u] == -1 {
					return -1
				}
				return f.g.Adj(u)[slots[u]].To
			}
			for u := 0; u < n; u++ {
				if next(u) != tree[u] {
					t.Fatalf("%s: unpacked row %d names %d after %d, vertex-id tree says %d", f.name, v, next(u), u, tree[u])
				}
				if got := s.at(v, u); got != next(u) {
					t.Fatalf("%s: next(%d→%d) = %d, unpacked row says %d", f.name, u, v, got, next(u))
				}
				var want []int
				for cur := u; next(u) != -1; cur = next(cur) {
					if want = append(want, cur); cur == v {
						break
					}
				}
				if got := s.Path(u, v); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: Path(%d,%d) = %v, unpacked row walks %v", f.name, u, v, got, want)
				}
			}
		}
		if err := VerifyPaths(f.g, pr); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		if err := VerifyPaths(f.g, FloydWarshallPaths(f.g)); err != nil {
			t.Errorf("%s: classical loop: %v", f.name, err)
		}
	}
}

// TestSuccessorRowExactWalk: on rows of non-negative integers below 1e9 under
// integer weights, successorRow decides tightness by plain equality and,
// while the queue is long, without a branch. Every row of these graphs
// must come out slot for slot — or fail with the same error — as the
// branching walk under tightSum's tolerance makes it: integer grids and
// random graphs with zero weights and several components, distances
// past 1e9 (where the tolerance reaches 1 and the exact walk must not
// run), and rows pushed off by one unit or to +Inf.
func TestSuccessorRowExactWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	big := func(u, v int) float64 { return float64(3e8 + rng.Intn(3)) }
	islands := graph.RandomGNP(300, 2.0/300, func(u, v int) float64 { return float64(rng.Intn(4)) }, rng)
	for _, c := range []namedGraph{
		{"grid", graph.Grid2D(32, 32, integerWeights(rng, 9))},
		{"gnp", graph.RandomGNP(400, 5.0/400, integerWeights(rng, 9), rng)},
		{"islands", islands},
		{"big", graph.Grid2D(12, 12, big)},
	} {
		n := c.g.N()
		d, _ := FloydWarshall(c.g)
		s := newSuccessors(c.g)
		edges := s.adj.weigh(c.g)
		if !integralWeights(edges) {
			t.Fatalf("%s: weights are integers", c.name)
		}
		exact, branching := make([]int32, n), make([]int32, n)
		queue := make([]int32, n+1)
		for v := 0; v < n; v++ {
			row := slices.Clone(d.V[v*n : (v+1)*n])
			switch v % 7 {
			case 3:
				row[(v+1)%n]++ // no edge explains it, or it is not the shortest
			case 5:
				row[(v+2)%n] = math.Inf(1)
			}
			errE := successorRow(edges, s.adj, row, v, exact, queue, true)
			errB := successorRow(edges, s.adj, row, v, branching, queue, false)
			if fmt.Sprint(errE) != fmt.Sprint(errB) {
				t.Fatalf("%s row %d: exact walk %v, branching walk %v", c.name, v, errE, errB)
			}
			if errE == nil && !slices.Equal(exact, branching) {
				t.Fatalf("%s row %d: the exact walk's slots differ from the branching walk's", c.name, v)
			}
		}
	}
}

// TestSuccessorsRefuseInfInsideComponent: the table answers "no path"
// from component labels, so a graph whose distances disagree with them —
// an edge of weight +Inf joins two vertices nothing else does — must
// never get a table: extraction reports it, the classical loop panics.
func TestSuccessorsRefuseInfInsideComponent(t *testing.T) {
	g := graph.Path(5, graph.UnitWeights)
	g.SetEdge(2, 3, math.Inf(1))
	d, _ := FloydWarshall(g)
	if _, err := SuccessorsFromDist(g, d); err == nil || !strings.Contains(err.Error(), "+Inf inside one component") {
		t.Errorf("SuccessorsFromDist over an Inf edge: err = %v, want the component error", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "inside one component") {
			t.Errorf("FloydWarshallPaths over an Inf edge: recovered %v, want the component panic", r)
		}
	}()
	FloydWarshallPaths(g)
}

// FuzzSlotRowRoundTrip packs one scratch row into the table of a random
// degree profile — degrees 0, 1, 2ᵏ and 2ᵏ+1, so columns of no bits sit
// beside wide ones and entries straddle words — pre-filled with a
// pattern, and reads every entry back; the rows on either side of it —
// the other side of both word boundaries — must still hold the pattern.
func FuzzSlotRowRoundTrip(f *testing.F) {
	f.Add(uint8(17), uint8(3), []byte{0, 1, 2, 3, 255, 254}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(33), uint8(0), []byte{255, 255, 255, 255, 7}, []byte{9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(64), uint8(63), []byte{}, []byte{})
	f.Add(uint8(95), uint8(94), []byte{1, 2, 3}, []byte{11, 10, 11, 10, 11, 10, 11}) // 33- and 32-neighbour columns: 6 and 5 bits, out of step with 64
	f.Fuzz(func(t *testing.T, n8, v8 uint8, data, profile []byte) {
		n := 1 + int(n8)%96
		v := int(v8) % n
		// Vertex u gets the profile's degree, as far as the vertices after
		// it (and its own earlier edges) allow.
		g := graph.New(n)
		for u := 0; u < n && len(profile) > 0; u++ {
			deg := 0
			switch c := int(profile[u%len(profile)]) % 14; {
			case c >= 2 && c%2 == 0:
				deg = 1 << (c/2 - 1) // 1, 2, 4, 8, 16, 32
			case c >= 2:
				deg = 1<<(c/2-1) + 1 // 2, 3, 5, 9, 17, 33
			default:
				deg = c
			}
			for w := u + 1; w < n && g.Degree(u) < deg; w++ {
				g.AddEdge(u, w, 1)
			}
		}
		s := newSuccessors(g)
		if want, _ := columnTableBytes(g); s.Bytes() != want {
			t.Fatalf("n %d: table of %d bytes, degree sequence says %d", n, s.Bytes(), want)
		}
		const pattern = 0xA5A5_5A5A_C3C3_3C3C
		for i := range s.words {
			s.words[i] = pattern
		}
		slots := make([]int32, n)
		for u := range slots {
			slots[u] = -1
			if u < len(data) && data[u] != 255 && g.Degree(u) > 0 {
				slots[u] = int32(int(data[u]) * 0x0101 % g.Degree(u))
			}
		}
		s.packRow(v, slots)
		for u, want := range slots {
			if got := s.slot(s.row(v), u); want != -1 && got != uint32(want) {
				t.Fatalf("n %d: entry %d (degree %d) packed as %d, read back %#x", n, u, g.Degree(u), want, got)
			}
		}
		for i, w := range s.words {
			if r := i / s.rowWords; r != v && w != pattern {
				t.Fatalf("n %d: packing row %d wrote word %d of row %d", n, v, i%s.rowWords, r)
			}
		}
	})
}
