package apsp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// TestSuccessorsWorkerInvariance: targets are extracted in parallel
// into disjoint rows, so the table must not depend on how many workers
// ran or how they interleaved. Compared against a single-goroutine
// build of the same rows, at GOMAXPROCS 1 and 4 (run under -race).
func TestSuccessorsWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range goldenFamilies() {
		d, _ := FloydWarshall(f.g)
		n := f.g.N()
		serial := make([]uint16, n*n)
		queue := make([]int32, 0, n)
		for v := 0; v < n; v++ {
			if err := successorRow(f.g, d.V[v*n:(v+1)*n], v, serial[v*n:(v+1)*n], queue); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			pr, err := SuccessorsFromDist(f.g, d)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", f.name, procs, err)
			}
			if !reflect.DeepEqual(pr.next.u16, serial) {
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
// extraction and Plan.Repair share: they read d(x,v) as row v entry x.
// Every matrix-based solver returns a bit-symmetric matrix on an
// undirected graph even when path sums round, because a ⊕ b⊗c and its
// mirror image add the same two floats. Johnson is the exception — its
// Dijkstras sum a path from opposite ends — and what covers it is the
// extraction tolerance: its matrix, and a symmetric one pushed off by
// one ulp in one entry, still yield tables that pass VerifyPaths.
func TestSolveDistSymmetric(t *testing.T) {
	solvers := map[string]func(g *graph.Graph) (*semiring.Matrix, error){
		"fw": func(g *graph.Graph) (*semiring.Matrix, error) { d, _ := FloydWarshall(g); return d, nil },
		"fw-tiled": func(g *graph.Graph) (*semiring.Matrix, error) {
			d, _ := FloydWarshallKernel(g, semiring.KernelTiled)
			return d, nil
		},
		"blockedfw": func(g *graph.Graph) (*semiring.Matrix, error) { d, _ := BlockedFloydWarshall(g, 16); return d, nil },
		"fwpaths":   func(g *graph.Graph) (*semiring.Matrix, error) { return FloydWarshallPaths(g).Dist, nil },
		"superfw": func(g *graph.Graph) (*semiring.Matrix, error) {
			r, err := SuperFW(g, 3, 42)
			if err != nil {
				return nil, err
			}
			return r.Dist, nil
		},
		"superfw-par": func(g *graph.Graph) (*semiring.Matrix, error) {
			ly, err := NewLayout(g, 3, 42)
			if err != nil {
				return nil, err
			}
			d, _ := SuperFWParallel(ly)
			return d, nil
		},
		"1dfw": func(g *graph.Graph) (*semiring.Matrix, error) { return distOf(Dist1DFW(g, 4)) },
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
// from the repaired distances builds for that target.
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
		for round, kind := range []string{"dec", "inc", "mixed", "mixed"} {
			edits := pickEdits(g, rng, 1+rng.Intn(3), kind)
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
			changed := 0
			for v := 0; v < n; v++ {
				row := got.next.u16[v*n : (v+1)*n]
				if reflect.DeepEqual(row, prev.next.u16[v*n:(v+1)*n]) {
					continue
				}
				changed++
				if !reflect.DeepEqual(row, fresh.next.u16[v*n:(v+1)*n]) {
					t.Errorf("%s round %d: rebuilt row %d differs from a fresh extraction", name, round, v)
				}
			}
			if changed > st.RepairedColumns {
				t.Errorf("%s round %d: %d rows changed but only %d were rebuilt", name, round, changed, st.RepairedColumns)
			}
			g, prev = g2, got
		}
	}
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

// TestSuccessorsWidth: the width selector's boundary, tested as a
// function, and the wide (int32) builders — which production reaches
// only from 65 536 vertices up — driven over the golden families
// through the internal constructor and held entry for entry, path for
// path, against the narrow table, through a repair included.
func TestSuccessorsWidth(t *testing.T) {
	if !narrowSuccessors(math.MaxUint16) {
		t.Error("n = 65535: ids 0..65534 all sit below the 0xFFFF sentinel, want uint16")
	}
	if narrowSuccessors(math.MaxUint16 + 1) {
		t.Error("n = 65536: vertex 65535 collides with the sentinel, want int32")
	}
	sameTable := func(name string, a, b *Successors) {
		t.Helper()
		for v := 0; v < a.n; v++ {
			for u := 0; u < a.n; u++ {
				if a.at(v, u) != b.at(v, u) {
					t.Fatalf("%s: next(%d→%d) = %d wide, %d narrow", name, u, v, a.at(v, u), b.at(v, u))
				}
				if !reflect.DeepEqual(a.Path(u, v), b.Path(u, v)) {
					t.Fatalf("%s: Path(%d,%d) differs between widths", name, u, v)
				}
			}
		}
	}
	for _, f := range goldenFamilies() {
		n := f.g.N()
		d, _ := FloydWarshall(f.g)
		narrow, err := SuccessorsFromDist(f.g, d)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		wide, err := buildSuccessors(f.g, matrixRows(d), false)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got, want := narrow.next.Bytes(), int64(2*n*n); got != want {
			t.Errorf("%s: narrow table holds %d bytes, want %d", f.name, got, want)
		}
		if got, want := wide.Bytes(), int64(4*n*n); got != want {
			t.Errorf("%s: wide table holds %d bytes, want %d", f.name, got, want)
		}
		sameTable(f.name, wide, narrow.next)
		if err := VerifyPaths(f.g, &PathResult{Dist: d, next: wide}); err != nil {
			t.Errorf("%s: wide table: %v", f.name, err)
		}

		fw := newSuccessors(n, false)
		floydWarshallNext(f.g, semiring.FromSlice(n, n, f.g.AdjacencyMatrix()), fw.i32)
		sameTable(f.name+" (classical loop)", fw, FloydWarshallPaths(f.g).next)
	}

	g := graph.Grid2D(7, 7, func(u, v int) float64 { return float64(1 + (u+v)%4) })
	sopts := SparseOptions{Seed: 3, Plans: NewPlanCache()}
	prev := solvePaths(t, g, 9, sopts)
	widePrev, err := buildSuccessors(g, matrixRows(prev.Dist), false)
	if err != nil {
		t.Fatal(err)
	}
	edits := pickEdits(g, rand.New(rand.NewSource(5)), 3, "mixed")
	want, _, _, err := RepairWithOptions(g, prev, edits, 9, sopts, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, g2, _, err := RepairWithOptions(g, &PathResult{Dist: prev.Dist, next: widePrev}, edits, 9, sopts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.next.i32 == nil {
		t.Fatal("repair of a wide result narrowed its table")
	}
	sameTable("repaired", got.next, want.next)
	if err := VerifyPaths(g2, got); err != nil {
		t.Error(err)
	}
}
