package oracle

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// storeCase is one graph whose solved distances must land in one kind
// and one layout.
type storeCase struct {
	name  string
	g     *graph.Graph
	kind  string
	scale float64
	// dist solves g; nil means the classical loop. square says its
	// matrix is NOT bit-symmetric, so the store must keep both halves.
	dist   func(g *graph.Graph) (*semiring.Matrix, error)
	square bool
}

// solve is succSolve over the case's own distance solver.
func (tc storeCase) solve() (*apsp.PathResult, error) {
	if tc.dist == nil {
		return succSolve(tc.g)
	}
	d, err := tc.dist(tc.g)
	if err != nil {
		return nil, err
	}
	return apsp.SuccessorsFromDist(tc.g, d)
}

// succBytes is what the successor table of g must retain, from first
// principles: n rows of one column per vertex, bits.Len(deg−1) bits wide,
// padded to whole 64-bit words, plus the int32 arrays that decode them
// (n+1 neighbour offsets, n+1 bit offsets, 2m neighbours, 2m reverse
// slots, n component labels).
func succBytes(g *graph.Graph) int64 {
	n, rowBits := g.N(), 0
	for u := 0; u < n; u++ {
		if deg := g.Degree(u); deg > 1 {
			rowBits += bits.Len(uint(deg - 1))
		}
	}
	return int64(n)*int64((rowBits+63)/64)*8 + int64(2*(n+1)+4*g.M()+n)*4
}

// distBytes is what the distances of an n-vertex graph must retain in
// kind: the n(n+1)/2 entries on and below the diagonal when the matrix
// is bit-symmetric, all n² when square — N bits each for uN, back to
// back in whole 64-bit words, 4 or 8 bytes each for f32 / f64.
func distBytes(n int, kind string, square bool) int64 {
	entries := int64(n) * int64(n+1) / 2
	if square {
		entries = int64(n) * int64(n)
	}
	switch kind {
	case "f32":
		return entries * 4
	case "f64":
		return entries * 8
	}
	width, err := strconv.Atoi(strings.TrimPrefix(kind, "u"))
	if err != nil || width < 1 || width > 32 {
		panic("distBytes: no kind " + kind)
	}
	return (entries*int64(width) + 63) / 64 * 8
}

// hotBytes is an oracle of g over a bit-symmetric matrix: the
// triangle in kind plus succBytes.
func hotBytes(g *graph.Graph, kind string) int64 {
	return distBytes(g.N(), kind, false) + succBytes(g)
}

// uKind names the uN whose largest finite code is maxK: N bits tell
// maxK + 1 codes apart, the last of them Inf.
func uKind(maxK uint64) string { return fmt.Sprintf("u%d", bits.Len64(maxK+1)) }

// quantKind is the kind a matrix of multiples of scale must land in:
// uKind of its largest finite entry over scale.
func quantKind(d *semiring.Matrix, scale float64) string {
	var maxK uint64
	for _, x := range d.V {
		if !math.IsInf(x, 1) {
			maxK = max(maxK, uint64(math.Round(x/scale)))
		}
	}
	return uKind(maxK)
}

// bitSymmetric is the symmetry proof by brute force.
func bitSymmetric(d *semiring.Matrix) bool {
	for u := 0; u < d.Rows; u++ {
		for v := 0; v < u; v++ {
			if !sameBits(d.At(u, v), d.At(v, u)) {
				return false
			}
		}
	}
	return true
}

// checkStoreReads holds every way of reading s — at in both argument
// orders, row, widen, and the same again after a trip through the codec
// — against want, bit for bit.
func checkStoreReads(t *testing.T, s *distStore, want *semiring.Matrix) {
	t.Helper()
	n := want.Rows
	back, err := decodeStore(s.encode())
	if err != nil {
		t.Fatalf("%s/%s store does not decode: %v", s.kindName(), s.layoutName(), err)
	}
	if back.kindName() != s.kindName() || back.tri != s.tri || back.n != s.n || back.bytes() != s.bytes() {
		t.Fatalf("%s/%s store of %d bytes decodes as %s/%s of %d", s.kindName(), s.layoutName(), s.bytes(),
			back.kindName(), back.layoutName(), back.bytes())
	}
	if got, want := s.bytes(), distBytes(n, s.kindName(), !s.tri); got != want {
		t.Fatalf("%s/%s store of n=%d holds %d bytes, want %d", s.kindName(), s.layoutName(), n, got, want)
	}
	for _, st := range []*distStore{s, back} {
		wide := st.widen()
		buf := make([]float64, n)
		for u := 0; u < n; u++ {
			row := st.row(u, buf)
			for v := 0; v < n; v++ {
				w := want.At(u, v)
				if got := st.at(u, v); !sameBits(got, w) {
					t.Fatalf("%s/%s store reads (%d,%d) as %v, want %v", st.kindName(), st.layoutName(), u, v, got, w)
				}
				if !sameBits(row[v], w) || !sameBits(wide.At(u, v), w) {
					t.Fatalf("%s/%s store widens (%d,%d) to %v by row, %v whole, want %v",
						st.kindName(), st.layoutName(), u, v, row[v], wide.At(u, v), w)
				}
			}
		}
	}
}

func storeCases() []storeCase {
	rng := rand.New(rand.NewSource(1308))
	ints := func(lo, hi int) graph.WeightFn {
		return func(u, v int) float64 { return float64(lo + rng.Intn(hi-lo+1)) }
	}
	// On a 6×6 grid every pair is joined by a path of at most 10 edges,
	// and d(0,35) takes at least 10 — or edge {0,1} and 9 more — so
	// weights in [lo, hi] put the largest distance in [0.5 + 9·lo, 10·hi].
	halves := graph.Grid2D(6, 6, func(u, v int) float64 { return 0.5 * float64(14+rng.Intn(12)) })
	halves.SetEdge(0, 1, 0.5) // pins the smallest positive distance, and so the scale: k ∈ [127, 250]
	longHalves := graph.Grid2D(6, 6, func(u, v int) float64 { return 0.5 * float64(3700+rng.Intn(2801)) })
	longHalves.SetEdge(0, 1, 0.5) // k ∈ [33,301, 65,000]: 16 bits at that scale

	brim := graph.Path(3, graph.UnitWeights)
	brim.SetEdge(1, 2, 253) // d(0,2) = 254: the last finite 8-bit code
	over := graph.Path(3, graph.UnitWeights)
	over.SetEdge(1, 2, 254) // d(0,2) = 255: the 8-bit Inf code, so 9 bits

	wide := graph.Path(4, graph.UnitWeights)
	wide.SetEdge(1, 2, 1<<31-1) // d(0,3) = 2^31 + 1: 32 bits

	// An integer graph after a fractional edit: 2.5 is no multiple of
	// the smallest distance (1), but every half-integer is float32-exact.
	edited := graph.Grid2D(5, 5, ints(1, 9))
	edited.SetEdge(0, 1, 1)
	edited.SetEdge(1, 2, 2.5)

	islands := graph.New(30)
	for v := 1; v < 12; v++ {
		islands.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(9)))
	}
	for v := 13; v < 30; v++ {
		islands.AddEdge(12+rng.Intn(v-12), v, float64(1+rng.Intn(9)))
	}

	// On a 7×7 grid the bound is 12 edges both ways.
	cases := []storeCase{
		{name: "u8 scale 1", g: graph.Grid2D(7, 7, ints(11, 19)), kind: "u8", scale: 1}, // [132, 228]
		{name: "u8 scale 0.5", g: halves, kind: "u8", scale: 0.5},
		{name: "u8 up to 254", g: brim, kind: "u8", scale: 1},
		{name: "u9 from 255", g: over, kind: "u9", scale: 1},
		{name: "u16 scale 1", g: graph.Grid2D(7, 7, ints(3000, 5000)), kind: "u16", scale: 1}, // [36,000, 60,000]
		{name: "u16 scale 0.5", g: longHalves, kind: "u16", scale: 0.5},
		{name: "u32", g: wide, kind: "u32", scale: 1},
		{name: "f32", g: edited, kind: "f32", scale: 1},
		{name: "f64", g: graph.RandomGNP(40, 0.15, graph.RandomWeights(rng, 0.5, 10), rng), kind: "f64", scale: 1},
		{name: "disconnected", g: islands, kind: "u6", scale: 1},
		{name: "zero-weight edges", g: graph.Grid2D(6, 6, ints(0, 4)), kind: "u4", scale: 1},
		{name: "n=0", g: graph.New(0), kind: "u1", scale: 1},
		{name: "n=1", g: graph.New(1), kind: "u1", scale: 1},
	}

	// The solvers of apsp.TestSolveDistSymmetric on a real-valued grid,
	// where path sums round: every matrix-based one must land in the
	// triangle, and the two that are not bit-symmetric — Johnson, whose
	// Dijkstras sum a path from opposite ends, and a symmetric matrix
	// with one entry pushed an ulp off its mirror — must land square.
	real := graph.Grid2D(7, 7, graph.RandomWeights(rng, 0.5, 10))
	distResult := func(r *apsp.DistResult, err error) (*semiring.Matrix, error) {
		if err != nil {
			return nil, err
		}
		return r.Dist, nil
	}
	for _, sv := range []struct {
		name   string
		dist   func(g *graph.Graph) (*semiring.Matrix, error)
		square bool
	}{
		{"fw", func(g *graph.Graph) (*semiring.Matrix, error) {
			d, _ := apsp.FloydWarshall(g)
			return d, nil
		}, false},
		{"superfw", func(g *graph.Graph) (*semiring.Matrix, error) {
			r, err := apsp.SuperFW(g, 3, 42)
			if err != nil {
				return nil, err
			}
			return r.Dist, nil
		}, false},
		{"2dfw", func(g *graph.Graph) (*semiring.Matrix, error) { return distResult(apsp.Dist2DFW(g, 4)) }, false},
		{"dc", func(g *graph.Graph) (*semiring.Matrix, error) { return distResult(apsp.DCAPSP(g, 4, 1)) }, false},
		{"sparse", func(g *graph.Graph) (*semiring.Matrix, error) {
			return distResult(apsp.SparseAPSPWith(g, 9, apsp.SparseOptions{Seed: 42}))
		}, false},
		{"johnson", apsp.Johnson, true},
		{"one-ulp", func(g *graph.Graph) (*semiring.Matrix, error) {
			d, _ := apsp.FloydWarshall(g)
			u, v := 1, g.N()-2
			d.Set(u, v, math.Nextafter(d.At(u, v), math.Inf(1)))
			return d, nil
		}, true},
	} {
		cases = append(cases, storeCase{name: "f64 " + sv.name, g: real, kind: "f64", scale: 1, dist: sv.dist, square: sv.square})
	}

	// What /reweight installs on a real-valued graph: the repair folds an
	// edited edge in as d(x,u) + w + d(v,y), and its mirror image adds the
	// same three floats in the other order, so the halves round apart.
	e := real.Edges()
	edits := []apsp.EdgeEdit{{U: e[0].U, V: e[0].V, W: e[0].W + 2.3}, {U: e[40].U, V: e[40].V, W: e[40].W / 3}}
	ed, err := apsp.ApplyEdits(real, edits)
	if err != nil {
		panic(err)
	}
	repaired := ed.Graph
	return append(cases, storeCase{name: "f64 repaired", g: repaired, kind: "f64", scale: 1, square: true,
		dist: func(*graph.Graph) (*semiring.Matrix, error) {
			prev, err := succSolve(real)
			if err != nil {
				return nil, err
			}
			rows := func(v int, _ []float64) []float64 { return prev.Dist.V[v*real.N() : (v+1)*real.N()] }
			res, _, err := testRepairer()(ed, rows, prev.Successors())
			if err != nil {
				return nil, err
			}
			return res.Dist, nil
		}})
}

// TestStoreBitIdentity is the store's contract, one row per kind: the
// oracle built from a solve answers every Dist / BatchDist with the
// solver's own bits and every Path with the solver's own path, whether
// the kind was proved (uN at 1 to 32 bits, f32) or is the f64 fallback
// for real-valued weights — the store is bit-exact for ANY weights — and
// whether the symmetry proof held (the triangle: every case but the three
// marked square) or not. The same holds for the float64 form handed to
// Repair and for the serialised bytes.
func TestStoreBitIdentity(t *testing.T) {
	for _, tc := range storeCases() {
		t.Run(tc.name, func(t *testing.T) {
			// ref is solved separately: the f64 kind shares the storage of
			// the result the oracle was built from.
			ref, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			if bitSymmetric(ref.Dist) == tc.square {
				t.Fatalf("test input: the solver's matrix must be bit-symmetric exactly when the case is not square (%v)", tc.square)
			}
			if tc.kind[0] == 'u' && quantKind(ref.Dist, tc.scale) != tc.kind {
				t.Fatalf("test input: the largest distance over %g needs %s, the case says %s", tc.scale, quantKind(ref.Dist, tc.scale), tc.kind)
			}
			o := FromResult(res, nil)
			n := tc.g.N()
			if got := o.dist.kindName(); got != tc.kind || o.dist.scale != tc.scale || o.dist.tri == tc.square {
				t.Fatalf("stored as %s/%s scale %g, want %s scale %g, square %v", got, o.dist.layoutName(), o.dist.scale, tc.kind, tc.scale, tc.square)
			}
			wantDist := distBytes(n, tc.kind, tc.square)
			if got, want := o.MemoryBytes(), wantDist+succBytes(tc.g); got != want {
				t.Errorf("MemoryBytes = %d, want %d (%d bytes of %s distances + the table its degree sequence predicts)",
					got, want, wantDist, tc.kind)
			}

			pairs := make([][2]int, 0, n*n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					pairs = append(pairs, [2]int{u, v})
				}
			}
			dists, err := o.BatchDist(pairs)
			if err != nil {
				t.Fatal(err)
			}
			paths, err := o.BatchPath(pairs)
			if err != nil {
				t.Fatal(err)
			}
			sawInf := false
			for i, p := range pairs {
				want := ref.Dist.At(p[0], p[1])
				sawInf = sawInf || math.IsInf(want, 1)
				d, err := o.Dist(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(d, want) || !sameBits(dists[i], want) {
					t.Fatalf("Dist%v = %v, BatchDist %v, want %v bit-exactly", p, d, dists[i], want)
				}
				wantPath := ref.Path(p[0], p[1])
				path, err := o.Path(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(path, wantPath) || !reflect.DeepEqual(paths[i], wantPath) {
					t.Fatalf("Path%v = %v, BatchPath %v, want %v", p, path, paths[i], wantPath)
				}
			}
			if tc.name == "disconnected" && !sawInf {
				t.Fatal("the disconnected case holds no unreachable pair")
			}

			checkStoreReads(t, o.dist, ref.Dist)
			blob := CompressDist(ref.Dist)
			if s, err := decodeStore(blob); err != nil {
				t.Error(err)
			} else if s.kindName() != tc.kind || s.n != n {
				t.Errorf("stored as %s/n=%d, want %s/n=%d", s.kindName(), s.n, tc.kind, n)
			}
			if got, want := int64(len(blob)), tierHeaderLen+wantDist; got != want {
				t.Errorf("serialised to %d bytes, want %d", got, want)
			}
			back, err := DecompressDist(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(ref.Dist) || !sameMatrixBits(back, ref.Dist) {
				t.Error("DecompressDist(CompressDist(d)) differs from d")
			}
		})
	}
}

func sameMatrixBits(a, b *semiring.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.V {
		if !sameBits(x, b.V[i]) {
			return false
		}
	}
	return true
}

// TestStoreKindBoundaries pins, at every width N from 1 to 32, the last
// finite code and the Inf code beside it, and the values the two proofs
// must refuse: the width proof per value, the symmetry proof per mirror
// pair. Each row is a 2×2 matrix {d00, d01, d10, d11} tried as written —
// square, since d01 and d10 differ in at least a bit — and with d01
// copied onto d10, which must land in the triangle at the kind sym
// (where the odd value is the only positive one it becomes the scale,
// and two bits hold it as k = 1 beside Inf).
func TestStoreKindBoundaries(t *testing.T) {
	inf := semiring.Inf
	// Every width: 2^N−2 is the largest finite code of N bits, the Inf
	// code 2^N−1 sits beside it, and a finite 2^N−1 takes N+1 bits — or,
	// past 32, f64 (it needs 32 mantissa bits, so no float32 holds it).
	for width := 1; width <= 32; width++ {
		last := uint64(1)<<width - 2
		s := narrow(distOf([]float64{0, float64(last), inf, 0}, 2))
		if got, want := s.kindName(), fmt.Sprintf("u%d", width); got != want || s.tri {
			t.Fatalf("2^%d-2 beside Inf: stored as %s/%s, want %s/square", width, got, s.layoutName(), want)
		}
		if s.code(1) != last || s.code(2) != last+1 || s.inf() != last+1 {
			t.Fatalf("u%d: codes %d and %d, Inf code %d, want %d, %d and %d", width, s.code(1), s.code(2), s.inf(), last, last+1, last+1)
		}
		checkStoreReads(t, s, distOf([]float64{0, float64(last), inf, 0}, 2))
		over := distOf([]float64{0, float64(last + 1), inf, 1}, 2) // with 1 beside it, 2^N−1 is no scale
		want := fmt.Sprintf("u%d", width+1)
		if width == 32 {
			want = "f64"
		}
		if s := narrow(over.Clone()); s.kindName() != want {
			t.Fatalf("a finite 2^%d-1: stored as %s, want %s", width, s.kindName(), want)
		}
		checkStoreReads(t, narrow(over.Clone()), over)
	}

	negZero := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, tc := range []struct {
		name      string
		vals      []float64
		kind, sym string
	}{
		{"254 is the last 8-bit code", []float64{0, 254, 1, inf}, "u8", "u8"},
		{"255 is the 8-bit Inf code", []float64{0, 255, 1, inf}, "u9", "u9"},
		{"256 is past it", []float64{0, 256, 1, inf}, "u9", "u9"},
		{"Inf beside 254", []float64{0, inf, 254, inf}, "u8", "u1"},
		{"127 halves are the last 8-bit code at scale 0.5", []float64{0, 127, 0.5, inf}, "u8", "u8"},
		{"127.5 is that scale's 8-bit Inf code", []float64{0, 127.5, 0.5, inf}, "u9", "u2"},
		{"65534 is the last 16-bit code", []float64{0, 65534, 1, inf}, "u16", "u16"},
		{"65535 is the 16-bit Inf code", []float64{0, 65535, 1, inf}, "u17", "u17"},
		{"2^32-2 is the last 32-bit code", []float64{0, 1<<32 - 2, 1, inf}, "u32", "u32"},
		{"2^32-1 is the 32-bit Inf code", []float64{0, 1<<32 - 1, 1, inf}, "f64", "u2"},
		{"2^32 is float32-exact", []float64{0, 1 << 32, 1, inf}, "f32", "u2"},
		{"past float32 range", []float64{0, 1e300, 1.5, inf}, "f64", "u2"},
		{"float64 subnormals", []float64{0, 5e-324, 1e-323, inf}, "u2", "u2"}, // k·5e-324 is exact
		{"a float32 subnormal", []float64{0, 0x1p-149, 1.5, 0.3}, "f64", "f64"},
		{"negative zero", []float64{0, negZero, 1, inf}, "f64", "f64"},
		{"negative zero among halves", []float64{0, negZero, 0.5, 1.5}, "f64", "f64"},
		{"NaN", []float64{0, math.NaN(), 1, inf}, "f64", "f64"},
		{"a negative distance", []float64{0, -3, 1, inf}, "f32", "f32"},
		{"-Inf", []float64{0, math.Inf(-1), 1, inf}, "f32", "f32"},
		// Mirror pairs that == calls equal, or that differ only where a
		// comparison of distances never looks: the proof compares bits.
		{"+0 across the diagonal from -0", []float64{0, 0, negZero, 0}, "f64", "u1"},
		{"NaNs with different payloads", []float64{0, nan1, nan2, 0}, "f64", "f64"},
		{"Inf on one side only", []float64{0, inf, 7, 0}, "u4", "u1"},
		{"a mirror entry one ulp off", []float64{0, 0.3, math.Nextafter(0.3, 1), 0}, "f64", "u2"},
	} {
		for _, mirror := range []bool{false, true} {
			vals, kind := append([]float64(nil), tc.vals...), tc.kind
			if mirror {
				vals[2], kind = vals[1], tc.sym
			}
			s := narrow(distOf(append([]float64(nil), vals...), 2))
			if s.kindName() != kind || s.tri != mirror {
				t.Errorf("%s (mirrored: %v): stored as %s/%s, want %s", tc.name, mirror, s.kindName(), s.layoutName(), kind)
			}
			checkStoreReads(t, s, distOf(vals, 2))
		}
	}

	// The same refusals wherever the odd entry sits in a matrix big
	// enough to span several blocks of the tiled proof — inside a
	// diagonal block, in an off-diagonal one, in the ragged last one —
	// and at every kind the rest of the matrix would have taken.
	const n = 2*symTile + 7
	for _, base := range []struct {
		kind string
		step float64
	}{{"u7", 1}, {"u9", 4}, {"u23", 70000}, {"f32", 1.5}, {"f64", 0.1}} { // |u−v| ≤ 70
		sym := semiring.NewMatrix(n, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				sym.Set(u, v, base.step*math.Abs(float64(u-v)))
			}
		}
		switch base.kind { // multiples of one step alone would quantize at that scale
		case "f32":
			sym.Set(0, 1, 2.5)
			sym.Set(1, 0, 2.5)
		case "f64":
			sym.Set(0, 1, 0.25)
			sym.Set(1, 0, 0.25)
		}
		s := narrow(sym.Clone())
		if s.kindName() != base.kind || !s.tri {
			t.Fatalf("symmetric %s base stored as %s/%s", base.kind, s.kindName(), s.layoutName())
		}
		checkStoreReads(t, s, sym)
		for _, at := range [][2]int{{1, 0}, {symTile - 1, symTile - 2}, {symTile, symTile - 1}, {symTile + 5, 3}, {n - 1, 0}, {n - 1, n - 2}, {n - 2, symTile + 1}} {
			for name, poke := range map[string]func(x float64) float64{
				"one ulp up": func(x float64) float64 { return math.Nextafter(x, inf) },
				"Inf":        func(float64) float64 { return inf },
				"NaN":        func(float64) float64 { return nan1 },
			} {
				for _, upper := range []bool{false, true} {
					d := sym.Clone()
					u, v := at[0], at[1]
					if upper {
						u, v = v, u
					}
					d.Set(u, v, poke(d.At(u, v)))
					s := narrow(d.Clone())
					if s.tri {
						t.Fatalf("%s base with (%d,%d) poked %s: stored as a triangle", base.kind, u, v, name)
					}
					checkStoreReads(t, s, d)
				}
			}
		}
	}
}

// TestNarrowPacksLikeOneWriter: narrow packs in parallel, each worker a
// range of 64-entry blocks; the words must equal a reference that sets
// every entry's bits one at a time on one goroutine — at widths whose
// entries straddle words and at n whose rows end mid-word, so every
// range seam falls inside a row, in both layouts. Run under -race.
func TestNarrowPacksLikeOneWriter(t *testing.T) {
	for _, n := range []int{1, 7, 63, 65, 130, 257} {
		for _, width := range []int{1, 3, 8, 11, 17, 31, 32} {
			for _, square := range []bool{false, true} {
				if square && n == 1 {
					continue
				}
				top := uint64(1)<<width - 2 // the largest finite code; top+1 is Inf
				d := semiring.NewMatrix(n, n)
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						k := uint64(min(u, v)*n+max(u, v)) * 2654435761 % (top + 2)
						if square && u < v {
							k = (k + 1) % (top + 2)
						}
						d.Set(u, v, float64(k))
						if k == top+1 {
							d.Set(u, v, semiring.Inf)
						}
					}
				}
				d.Set(0, 0, float64(top))
				s := narrow(d.Clone())
				if s.kindName() != fmt.Sprintf("u%d", width) || s.tri == square {
					t.Fatalf("n=%d, width %d, square %v: stored as %s/%s", n, width, square, s.kindName(), s.layoutName())
				}
				want := make([]uint64, codeWords(storeLen(n, !square), uint8(width)))
				i := 0
				for r := 0; r < n; r++ {
					_, w := rowSpan(n, r, !square)
					for c := 0; c < w; c++ {
						k := top + 1
						if x := d.At(r, c); !math.IsInf(x, 1) {
							k = uint64(x)
						}
						for bit := 0; bit < width; bit++ {
							if k>>bit&1 == 1 {
								p := i*width + bit
								want[p/64] |= 1 << (p % 64)
							}
						}
						i++
					}
				}
				if !slices.Equal(s.codes, want) {
					t.Fatalf("n=%d, width %d, square %v: the parallel pack differs from the one-writer reference", n, width, square)
				}
			}
		}
	}
}

// recordingRepairer wraps testRepairer and keeps a copy of the matrix
// each repair returned, so a test can hold the oracle built from it
// against the repair's own bits.
func recordingRepairer(last **semiring.Matrix) RepairFunc {
	repair := testRepairer()
	return func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
		res, st, err := repair(ed, prevDist, prevNext)
		if err == nil {
			*last = res.Dist.Clone()
		}
		return res, st, err
	}
}

// TestReweightRenarrows: a repaired result is narrowed from scratch, so
// an edit that breaks the old kind's proof lands in a wider kind and an
// edit that restores it lands back — with Stats.Bytes following.
func TestReweightRenarrows(t *testing.T) {
	const n = 36
	var repaired *semiring.Matrix
	r := NewRegistry(Config{Solve: succSolve, Repair: recordingRepairer(&repaired)})
	g := intGraph(77, n)
	o, err := r.Get(g)
	if err != nil {
		t.Fatal(err)
	}
	intKind := quantKind(fwDist(g), 1)
	if kind := o.dist.kindName(); kind != intKind {
		t.Fatalf("integer graph stored as %s, want %s", kind, intKind)
	}
	r.checkAccounting(t)
	if st := r.Stats(); st.Bytes != hotBytes(g, intKind) || !reflect.DeepEqual(st.StoreKinds, map[string]int{intKind: 1}) {
		t.Fatalf("stats = %+v, want one %s entry of %d bytes", st, intKind, hotBytes(g, intKind))
	}

	e := g.Edges()[0]
	check := func(o *Oracle, g2 *graph.Graph, exact bool) {
		t.Helper()
		fresh := fwDist(g2)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				d, err := o.Dist(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(d, repaired.At(u, v)) {
					t.Fatalf("Dist(%d,%d) = %v, the repair returned %v", u, v, d, repaired.At(u, v))
				}
				// Sums through the 0.1 edge round differently in different
				// orders; integer sums do not round at all.
				if want := fresh.At(u, v); exact && !sameBits(d, want) || math.Abs(d-want) > 1e-9 {
					t.Fatalf("Dist(%d,%d) = %v, a fresh solve says %v", u, v, d, want)
				}
				path, err := o.Path(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if w := apsp.PathWeight(g2, path); math.Abs(w-d) > 1e-9 {
					t.Fatalf("Path(%d,%d) weighs %v, distance %v", u, v, w, d)
				}
			}
		}
	}

	fp1, o1, _, err := r.Reweight(FingerprintOf(g), []apsp.EdgeEdit{{U: e.U, V: e.V, W: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if kind := o1.dist.kindName(); kind != "f64" {
		t.Fatalf("after an edit to 0.1 the store is %s, want f64", kind)
	}
	r.checkAccounting(t)
	if st := r.Stats(); st.Bytes != hotBytes(g, "f64") || !reflect.DeepEqual(st.StoreKinds, map[string]int{"f64": 1}) {
		t.Fatalf("stats = %+v, want one f64 entry of %d bytes", st, hotBytes(g, "f64"))
	}
	ed, err := apsp.ApplyEdits(g, []apsp.EdgeEdit{{U: e.U, V: e.V, W: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	g1 := ed.Graph
	check(o1, g1, false)

	fp2, o2, _, err := r.Reweight(fp1, []apsp.EdgeEdit{{U: e.U, V: e.V, W: e.W}})
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != FingerprintOf(g) {
		t.Error("undoing the edit did not restore the original fingerprint")
	}
	if kind := o2.dist.kindName(); kind != intKind {
		t.Fatalf("after undoing the edit the store is %s, want %s", kind, intKind)
	}
	r.checkAccounting(t)
	if st := r.Stats(); st.Bytes != hotBytes(g, intKind) || !reflect.DeepEqual(st.StoreKinds, map[string]int{intKind: 1}) {
		t.Fatalf("stats = %+v, want one %s entry of %d bytes", st, intKind, hotBytes(g, intKind))
	}
	check(o2, g, true)
}

// checkAccounting recomputes the registry's byte total from its entries
// and holds it against the running counter Stats reports: the LRU holds
// exactly the solved entries, each once, and r.bytes is the sum of their
// MemoryBytes.
func (r *Registry) checkAccounting(t *testing.T) {
	t.Helper()
	st := r.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	var bytes int64
	solved := 0
	for fp, e := range r.entries {
		if e.fp != fp {
			t.Errorf("entry %s filed under %s", e.fp, fp)
		}
		if (e.oracle == nil) != (e.elem == nil) {
			t.Errorf("entry %s: oracle %v, LRU element %v — want both or neither", fp, e.oracle != nil, e.elem != nil)
		}
		if e.oracle != nil {
			bytes += e.oracle.MemoryBytes()
			solved++
		}
	}
	if r.lru.Len() != solved {
		t.Errorf("LRU holds %d entries, the map has %d solved", r.lru.Len(), solved)
	}
	for el := r.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.elem != el || r.entries[e.fp] != e {
			t.Errorf("LRU holds entry %s, which does not belong there", e.fp)
		}
	}
	if st.Bytes != bytes || r.bytes != bytes {
		t.Errorf("Stats reports %d bytes, the counter holds %d; entries sum to %d", st.Bytes, r.bytes, bytes)
	}
}

// TestRegistryAccounting walks one registry through everything that
// moves an entry on or off the LRU — get, overflow drop, reweight of a
// cached entry, reweight of an evicted fingerprint, an oracle larger
// than the whole budget, a failed solve — recomputing the byte
// accounting from the entries after each step.
func TestRegistryAccounting(t *testing.T) {
	// Four grids of one structure under different weights, and a bigger
	// one: distances plus the slot table. Weights 8..15 fix the width, and
	// so the size: the 4×6 grids' corners are 8 edges apart, so their
	// largest distance is in [64, 120] — 7 bits, a bump of 2 included —
	// and the 5×8 one's in [88, 165], 8 bits.
	grid := func(seed int64, rows, cols int) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		return graph.Grid2D(rows, cols, func(u, v int) float64 { return float64(8 + rng.Intn(8)) })
	}
	g := make([]*graph.Graph, 4)
	for i := range g {
		g[i] = grid(int64(500+i), 4, 6)
	}
	huge, failing := grid(600, 5, 8), grid(700, 3, 3)
	one, hugeBytes := hotBytes(g[0], "u7"), hotBytes(huge, "u8")
	boom := errors.New("boom")
	r := NewRegistry(Config{
		Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
			if g == failing {
				return nil, boom
			}
			return succSolve(g)
		},
		Repair:       testRepairer(),
		MemoryBudget: 2*one + 1, // two 24-vertex oracles
	})
	step := func(what string, bytes, evictions int64, entries int) {
		t.Helper()
		r.checkAccounting(t)
		if got := r.Stats(); got.Bytes != bytes || got.Evictions != evictions || got.Entries != entries {
			t.Fatalf("after %s: %d bytes in %d entries, %d evictions, want %d in %d, %d", what,
				got.Bytes, got.Entries, got.Evictions, bytes, entries, evictions)
		}
	}
	get := func(g *graph.Graph) {
		t.Helper()
		o, err := r.Get(g)
		if err != nil {
			t.Fatal(err)
		}
		want := fwDist(g)
		for v := 0; v < g.N(); v++ {
			if d, _ := o.Dist(0, v); !sameBits(d, want.At(0, v)) {
				t.Fatalf("Dist(0,%d) = %v, want %v", v, d, want.At(0, v))
			}
			if p, _ := o.Path(0, v); apsp.PathWeight(g, p) != want.At(0, v) {
				t.Fatalf("Path(0,%d) = %v does not weigh %v", v, p, want.At(0, v))
			}
		}
	}
	bump := func(g *graph.Graph) []apsp.EdgeEdit {
		e := g.Edges()[0]
		return []apsp.EdgeEdit{{U: e.U, V: e.V, W: e.W + 2}}
	}

	get(g[0])
	get(g[1])
	step("two gets", 2*one, 0, 2)
	get(g[2]) // overflow: g0 is dropped
	step("overflow", 2*one, 1, 2)

	// Reweight of a cached entry swaps it in place: not an eviction.
	fp, _, _, err := r.Reweight(FingerprintOf(g[1]), bump(g[1]))
	if err != nil {
		t.Fatal(err)
	}
	ed, err := apsp.ApplyEdits(g[1], bump(g[1]))
	if err != nil {
		t.Fatal(err)
	}
	g1 := ed.Graph
	if _, ok, _ := r.Lookup(FingerprintOf(g[1])); ok || fp != FingerprintOf(g1) {
		t.Fatal("reweight did not swap the fingerprint")
	}
	step("reweight of a cached entry", 2*one, 1, 2)
	get(g1)
	step("re-reading the reweighted graph", 2*one, 1, 2)

	// An evicted fingerprint has nothing to repair from.
	if _, _, _, err := r.Reweight(FingerprintOf(g[0]), bump(g[0])); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("reweight of an evicted fingerprint: err = %v, want ErrUnknownGraph", err)
	}
	step("reweight of an evicted fingerprint", 2*one, 1, 2)

	if _, err := r.Get(failing); !errors.Is(err, boom) {
		t.Fatalf("failed solve: err = %v, want boom", err)
	}
	step("a failed solve", 2*one, 1, 2)

	// An oracle larger than the whole budget: the LRU empties trying to
	// make room, then drops the newcomer too.
	if hugeBytes <= 2*one+1 {
		t.Fatal("test sizes: the big oracle must exceed the budget")
	}
	get(huge)
	step("an oversized oracle", 0, 4, 0)
	get(g[3])
	step("a get after it", one, 4, 1)
}

// TestHeldOracleSurvivesEviction: queriers hammer BatchPath on an oracle
// obtained from Lookup while another goroutine evicts, re-solves and
// reweights that fingerprint. Eviction and the reweight swap only unlink
// an entry and never touch an oracle a query may hold, so the held one
// keeps answering exactly, and whatever the registry serves under the
// same fingerprint in the meantime is correct too. Run under -race.
func TestHeldOracleSurvivesEviction(t *testing.T) {
	const n, queriers, cycles = 24, 4, 25
	a, b := intGraph(41, n), intGraph(42, n)
	bytesA := hotBytes(a, quantKind(fwDist(a), 1))
	bytesB := hotBytes(b, quantKind(fwDist(b), 1))
	r := NewRegistry(Config{
		Solve:        succSolve,
		Repair:       testRepairer(),
		MemoryBudget: bytesA + bytesB - 1, // one oracle, even a bit wider: every Get of the other graph evicts
	})
	fpA := FingerprintOf(a)
	if _, err := r.Get(a); err != nil {
		t.Fatal(err)
	}
	want, err := succSolve(a)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int, 0, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, queriers)
	for q := 0; q < queriers; q++ {
		// Taken before the churn starts: mid-churn the fingerprint is
		// often absent, and an oracle that went through an edit and its
		// undo may break ties between equal paths differently.
		held, ok, err := r.Lookup(fpA)
		if err != nil || !ok {
			t.Fatalf("initial lookup = (%v, %v)", ok, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				paths, err := held.BatchPath(pairs)
				if err != nil {
					errs <- err
					return
				}
				for i, p := range pairs {
					if !reflect.DeepEqual(paths[i], want.Path(p[0], p[1])) {
						errs <- fmt.Errorf("held oracle: Path%v = %v, want %v", p, paths[i], want.Path(p[0], p[1]))
						return
					}
				}
				// The fingerprint is the graph's content, so anything served
				// under it mid-churn must answer for the same graph (it is
				// absent while evicted and while the edit is applied).
				cur, ok, err := r.Lookup(fpA)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					continue
				}
				dists, err := cur.BatchDist(pairs)
				if err != nil {
					errs <- err
					return
				}
				paths, err = cur.BatchPath(pairs)
				if err != nil {
					errs <- err
					return
				}
				for i, p := range pairs {
					ref := want.Dist.At(p[0], p[1])
					if !sameBits(dists[i], ref) || apsp.PathWeight(a, paths[i]) != ref {
						errs <- fmt.Errorf("looked-up oracle: pair %v = %v via %v, want %v", p, dists[i], paths[i], ref)
						return
					}
				}
			}
		}()
	}

	e := a.Edges()[0]
	fp := fpA
	for c := 0; c < cycles && len(errs) == 0; c++ {
		if _, err := r.Get(b); err != nil { // evicts a
			t.Fatal(err)
		}
		if _, err := r.Get(a); err != nil { // re-solves it
			t.Fatal(err)
		}
		for _, w := range []float64{e.W + 3, e.W} { // edit, then undo
			if fp, _, _, err = r.Reweight(fp, []apsp.EdgeEdit{{U: e.U, V: e.V, W: w}}); err != nil {
				t.Fatal(err)
			}
		}
		if fp != fpA {
			t.Fatal("undoing the edit did not restore the fingerprint")
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	r.checkAccounting(t)
	if st := r.Stats(); st.Evictions != 2*cycles || st.Reweights != 2*cycles {
		t.Errorf("stats = %+v, want %d evictions and %d reweights", st, 2*cycles, 2*cycles)
	}
}

// pathSolve solves a path graph 0–1–…–(n−1) in O(n²) from prefix sums,
// so the heap test can afford n = 512 under the race detector.
func pathSolve(g *graph.Graph) (*apsp.PathResult, error) {
	n := g.N()
	prefix := make([]float64, n)
	for v := 1; v < n; v++ {
		w, _ := g.HasEdge(v-1, v)
		prefix[v] = prefix[v-1] + w
	}
	d := make([]float64, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			d[u*n+v] = math.Abs(prefix[v] - prefix[u])
		}
	}
	return apsp.SuccessorsFromDist(g, semiring.FromSlice(n, n, d))
}

// TestMemoryBytesMatchesHeap holds the counter behind
// oracle_bytes_per_pair against the allocator: after K oracles are
// loaded through a registry and every other reference is dropped, the
// live heap must have grown by Σ MemoryBytes, within 15 %. It fails if
// FromResult keeps the solver's float64 matrix alive beside a narrow or
// triangular store, or copies it for the square f64 kind — the one case
// that shares the solver's matrix, reached here by pushing one entry of
// each matrix an ulp off its mirror.
func TestMemoryBytesMatchesHeap(t *testing.T) {
	const k, n = 8, 512
	ints := func(rng *rand.Rand) float64 { return float64(100 + rng.Intn(28)) } // the path is 51,100 to 64,897 long
	bits01 := func(rng *rand.Rand) float64 { return float64(rng.Intn(3) / 2) }  // one edge in three weighs 1: the path is ≈ 170 long
	reals := func(rng *rand.Rand) float64 { return 0.5 + 9.5*rng.Float64() }
	oneUlpOff := func(g *graph.Graph) (*apsp.PathResult, error) {
		res, err := pathSolve(g)
		if err != nil {
			return nil, err
		}
		res.Dist.Set(1, n-2, math.Nextafter(res.Dist.At(1, n-2), math.Inf(1)))
		return res, nil
	}
	for _, tc := range []struct {
		name, kind string
		square     bool
		weight     func(rng *rand.Rand) float64
		solve      SolveFunc
	}{
		{"u8", "u8", false, bits01, pathSolve},
		{"u16", "u16", false, ints, pathSolve},
		{"f64", "f64", false, reals, pathSolve},
		{"f64 square", "f64", true, reals, oneUlpOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			graphs := make([]*graph.Graph, k) // allocated before the baseline: the registry retains these very objects
			for i := range graphs {
				graphs[i] = graph.Path(n, func(u, v int) float64 { return tc.weight(rng) })
			}
			r := NewRegistry(Config{Solve: tc.solve})
			heap := func() int64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			}
			before := heap()
			for _, g := range graphs {
				if _, err := r.Get(g); err != nil {
					t.Fatal(err)
				}
			}
			grew := heap() - before
			st := r.Stats()
			// A path has two leaves and n−2 one-bit columns: n/8 bytes a row.
			layout := map[string]int{"tri": k}
			if tc.square {
				layout = map[string]int{"square": k}
			}
			if want := k * (distBytes(n, tc.kind, tc.square) + succBytes(graphs[0])); st.Bytes != want ||
				st.StoreKinds[tc.kind] != k || !reflect.DeepEqual(st.StoreLayouts, layout) {
				t.Fatalf("registry holds %d bytes in kinds %v, layouts %v, want %d bytes in %d %s entries, layouts %v",
					st.Bytes, st.StoreKinds, st.StoreLayouts, want, k, tc.kind, layout)
			}
			if diff := grew - st.Bytes; diff < -st.Bytes*15/100 || diff > st.Bytes*15/100 {
				t.Errorf("live heap grew by %d bytes for %d bytes of MemoryBytes (%+.1f %%), want within 15 %%",
					grew, st.Bytes, 100*float64(diff)/float64(st.Bytes))
			}
			runtime.KeepAlive(r)
		})
	}
}

// TestMemoryBytesBenchStructures pins oracle_bytes_per_pair on the three
// structures the end-to-end benchmark solves (bench/gen.go: the 32×32
// grid, G(768, 4/768) under its fixed structure seed, the 800-cycle;
// integer weights 1..9): the bytes computed here from n, the degree
// sequence and the width the largest distance needs — and, so that the
// computation itself cannot drift, their literal values. The grid's
// largest distance is under 255, 8 bits, and the grid literal is the
// guard for the five grid workloads; G(n,p)'s is under 63, 6 bits; half
// way round the cycle is past 1,900, 11 bits. Two more inputs keep the
// extremes of the degree sequence pinned: the n = 576 star, whose hub's
// column takes 10 bits and whose leaves' take none, and a random tree
// on 576 vertices (weights 1..9 drawn from seed 42).
func TestMemoryBytesBenchStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(20210809)) // bench's gnpStructureSeed: the edge set is part of the count
	gnp := graph.New(768)
	var gnpEdges [][2]int
	for u := 0; u < 768; u++ {
		for v := u + 1; v < 768; v++ {
			if rng.Float64() < 4.0/768 {
				gnpEdges = append(gnpEdges, [2]int{u, v})
			}
		}
	}
	w := func(u, v int) float64 { return float64(1 + rng.Intn(9)) }
	for _, e := range gnpEdges {
		gnp.AddEdge(e[0], e[1], w(e[0], e[1]))
	}
	trng := rand.New(rand.NewSource(42))
	tw := func(u, v int) float64 { return float64(1 + trng.Intn(9)) }
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		kind  string
		bytes int64
	}{
		{"grid", graph.Grid2D(32, 32, w), "u8", 830984},
		{"gnp", gnp, "u6", 408888},
		{"cycle", graph.Cycle(800, w), "u11", 546160},
		{"star", graph.Star(576, tw), "u5", 124592},
		{"tree", graph.RandomTree(576, tw, trng), "u7", 198392},
	} {
		res, err := apsp.SparseAPSPWith(tc.g, 49, apsp.SparseOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := apsp.SuccessorsFromDist(tc.g, res.Dist)
		if err != nil {
			t.Fatal(err)
		}
		o := FromResult(pr, nil)
		n := int64(tc.g.N())
		if kind := quantKind(res.Dist, 1); kind != tc.kind {
			t.Errorf("%s: the largest distance needs %s, pinned %s", tc.name, kind, tc.kind)
		}
		if got, want := o.MemoryBytes(), hotBytes(tc.g, tc.kind); got != want || want != tc.bytes || o.dist.kindName() != tc.kind {
			t.Errorf("%s: MemoryBytes = %d as %s (%.5f B/pair), the degree sequence and %s say %d, pinned %d",
				tc.name, got, o.dist.kindName(), float64(got)/float64(n*n), tc.kind, want, tc.bytes)
		}
	}
}
