package apsp

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// TestEmptyPanelBroadcastCostsO1Words is the regression test for the
// payload-sizing fix: broadcasting a provably empty (all-Inf) panel
// must cost O(1) words per hop — 1 word with the packed encoding — not
// the panel's dense area. The dense run of the same program pins the
// old cost for contrast.
func TestEmptyPanelBroadcastCostsO1Words(t *testing.T) {
	const p = 8
	const rows, cols = 100, 100
	run := func(payloadOf func(*semiring.Matrix) []float64, decode func([]float64) *semiring.Matrix) comm.Report {
		machine := comm.NewMachine(p)
		if err := machine.Run(func(ctx *comm.Ctx) {
			group := make([]int, p)
			for i := range group {
				group[i] = i
			}
			var payload []float64
			if ctx.Rank() == 0 {
				payload = payloadOf(semiring.NewMatrix(rows, cols))
			}
			data := ctx.Bcast(group, 0, 1, payload)
			if got := decode(data); got.NNZ() != 0 {
				panic("empty panel decoded with finite entries")
			}
		}); err != nil {
			t.Fatal(err)
		}
		return machine.Report()
	}

	packed := run(semiring.PackMatrix,
		func(data []float64) *semiring.Matrix { return semiring.UnpackMatrix(data, rows, cols) })
	dense := run(func(m *semiring.Matrix) []float64 { return append([]float64(nil), m.V...) },
		func(data []float64) *semiring.Matrix { return semiring.FromSlice(rows, cols, data) })

	// Binomial tree over 8 ranks: 3 hops on the critical path, 1 word each.
	if packed.Critical.Bandwidth > 3 {
		t.Errorf("packed empty broadcast: critical bandwidth %d, want <= 3 words", packed.Critical.Bandwidth)
	}
	if packed.TotalWords != p-1 {
		t.Errorf("packed empty broadcast: total words %d, want %d", packed.TotalWords, p-1)
	}
	if dense.TotalWords != int64(p-1)*rows*cols {
		t.Errorf("dense empty broadcast: total words %d, want %d", dense.TotalWords, int64(p-1)*rows*cols)
	}
}

// TestSolverSkipsEmptyPanelBroadcasts checks the mask actually bites
// inside the solver: on a path graph, leaf supernodes have no edges to
// the root separator, so several R3/R4 panel broadcasts are provably
// empty and the default wire must send strictly fewer messages.
func TestSolverSkipsEmptyPanelBroadcasts(t *testing.T) {
	g := graph.Path(240, graph.UnitWeights)
	dense, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 7, Wire: WireDense})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Report.TotalMessages >= dense.Report.TotalMessages {
		t.Errorf("default wire sent %d messages, dense %d: mask skipped nothing",
			sparse.Report.TotalMessages, dense.Report.TotalMessages)
	}
}

// TestWireFormatNames pins the name ↔ value mapping: the zero value is
// the pruned wire, the retired "packed" mode is an error that lists
// what is valid, and a value outside the enum prints as such instead
// of borrowing a real mode's name.
func TestWireFormatNames(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WireFormat
		ok   bool
	}{
		{"", WirePruned, true},
		{"pruned", WirePruned, true},
		{"dense", WireDense, true},
		{"packed", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ParseWireFormat(tc.in)
		switch {
		case tc.ok && (err != nil || got != tc.want):
			t.Errorf("ParseWireFormat(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "valid: pruned, dense")):
			t.Errorf("ParseWireFormat(%q) error = %v; want one listing the valid modes", tc.in, err)
		}
	}
	var zero WireFormat
	if zero != WirePruned || zero.String() != "pruned" || WireDense.String() != "dense" {
		t.Errorf("zero value %v / dense %v: want pruned / dense", zero, WireDense)
	}
	if got := WireFormat(2).String(); got != "WireFormat(2)" {
		t.Errorf("WireFormat(2).String() = %q", got)
	}
	g := graph.Path(10, graph.UnitWeights)
	if _, err := SparseAPSPWith(g, 9, SparseOptions{Wire: WireFormat(2)}); err == nil {
		t.Error("solve with an out-of-range wire format succeeded")
	}
}

// identicalMatrices compares bit for bit: the solvers' contract is
// stronger than EqualTol.
func identicalMatrices(a, b *semiring.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// TestSparseAPSPMatchesClassicalFW is the end-to-end property test of
// the plan/execute, min-plus and wire layers together: for random
// graphs from several families and BOTH wire formats, the distributed
// sparse solver's distances are bit-identical to Johnson's per-source
// Dijkstra, which shares no kernel with internal/semiring — and within
// a wire format, the charged cost report is identical across cold
// (plan built this solve) and warm (plan fetched from a cache)
// execution. Weights are small random integers: integer sums are exact
// in float64, so the distributed elimination and the Dijkstra fold
// path sums to identical bits even though they associate them
// differently.
func TestSparseAPSPMatchesClassicalFW(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(9, 9, integerWeights(rng, 10)), 9},
		{"gnp", graph.RandomGNP(70, 0.08, integerWeights(rng, 5), rng), 9},
		{"tree", graph.RandomTree(90, graph.UnitWeights, rng), 49},
		{"rmat", graph.RMAT(6, 3, integerWeights(rng, 4), rng), 9},
		{"star", graph.Star(60, graph.UnitWeights), 9},
	}
	for _, tc := range graphs {
		want := mustJohnson(t, tc.g)
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			base, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 11, Wire: wire})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, wire, err)
			}
			if !identicalMatrices(base.Dist, want) {
				t.Errorf("%s/%v: distances differ from Johnson", tc.name, wire)
			}
			// The cached-plan path must be indistinguishable from the
			// build-per-solve path (the first solve builds, the second hits).
			cache := NewPlanCache()
			for _, run := range []string{"build", "hit"} {
				warm, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 11, Wire: wire, Plans: cache})
				if err != nil {
					t.Fatalf("%s/%v (cache %s): %v", tc.name, wire, run, err)
				}
				if !identicalMatrices(warm.Dist, want) || !reflect.DeepEqual(warm.Report, base.Report) {
					t.Errorf("%s/%v: plan-cached solve (%s) differs from direct solve", tc.name, wire, run)
				}
			}
			if s := cache.Stats(); s.Builds != 1 || s.Hits != 1 {
				t.Errorf("%s/%v: plan cache stats %+v, want 1 build / 1 hit", tc.name, wire, s)
			}
		}
	}
}

// integerWeights returns a WeightFn drawing integer weights in [1, hi],
// which float64 represents and sums exactly.
func integerWeights(rng *rand.Rand, hi int) graph.WeightFn {
	return func(u, v int) float64 { return float64(rng.Intn(hi) + 1) }
}
