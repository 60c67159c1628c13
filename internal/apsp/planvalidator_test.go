package apsp

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sparseapsp/internal/graph"
)

// TestBuildPlanRejectsUnrunnablePlans: the check BuildPlan runs on every
// plan it builds (Plan.validate) rejects each of the hand-corrupted plans
// DecodePlan rejects, in BuildPlan's name, and accepts the plans they
// were edited from.
func TestBuildPlanRejectsUnrunnablePlans(t *testing.T) {
	for _, fx := range unrunnableGroupPlans(t) {
		err := fx.pl.validate()
		switch {
		case err == nil:
			t.Errorf("%s: the built plan's check passed it", fx.name)
		case !strings.HasPrefix(err.Error(), "apsp: BuildPlan: "):
			t.Errorf("%s: rejected in another's name: %v", fx.name, err)
		}
	}
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
		if err := buildTestPlan(t, g, 49, WirePruned, r4).validate(); err != nil {
			t.Errorf("r4=%d: the unedited plan fails its check: %v", r4, err)
		}
	}
}

// fuzzFamilies are the graph families FuzzBuildPlan draws, each over
// about n vertices.
var fuzzFamilies = []func(n int, w graph.WeightFn, rng *rand.Rand) *graph.Graph{
	func(n int, w graph.WeightFn, _ *rand.Rand) *graph.Graph {
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return graph.Grid2D(side, side, w)
	},
	func(n int, w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Cycle(max(n, 3), w) },
	func(n int, w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Path(n, w) },
	func(n int, w graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RandomTree(n, w, rng) },
	func(n int, w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Star(n, w) },
	func(n int, w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Caterpillar(max(n/3, 1), 2, w) },
	func(n int, w graph.WeightFn, rng *rand.Rand) *graph.Graph {
		return graph.RandomGNP(n, 4/float64(n), w, rng)
	},
	func(n int, _ graph.WeightFn, _ *rand.Rand) *graph.Graph {
		return disconnectedCliques(min(max(n/2, 1), 24))
	},
}

// FuzzBuildPlan draws a graph — a family, about n ≤ 1,024 vertices and
// integer weights in [0, 9] — and a machine: p ∈ {9, 49} (the byte 0xff
// draws 961, the served cycle's), the ND seed, the wire and the R4
// strategy. BuildPlan must return a plan its own check accepts, which
// solves to Johnson's distances bit for bit, and whose Plan.Cost is what
// the machine reference (executeMachine) charges — its whole Report and
// phase costs (costIsReport). The machine must give the same distances
// bit for bit and the same Report as ExecuteOpts, and the plan's encoding must decode and
// re-encode to the same bytes. The seeds are the two served shapes — the
// 32² grid at p = 49 and the 800-cycle at p = 961, at ND seed 42 — the
// two inputs earlier runs failed on, then one small graph of every family,
// across both wires and both R4 strategies, each solved in milliseconds,
// so that a short burst, whose first inputs may each take seconds, still
// replays every family.
func FuzzBuildPlan(f *testing.F) {
	// family, n-2 low and high byte, p, ND seed, weight seed, wire, R4.
	f.Add([]byte{0, 254, 3, 1, 42, 1, 0, 0})
	f.Add([]byte{1, 30, 3, 0xff, 42, 2, 0, 0})
	// A random tree, n = 803 at p = 49, whose R2 row-pivot mirror holder
	// shipped its column 2 words under the exact price: its capture had
	// dropped the pivot's zero diagonal (Plan.mirrorHeld).
	f.Add([]byte("C!\x031\xff)"))
	// A random tree, n = 611 at p = 961, whose dead-work drop narrowed an
	// R3 mirror holder's capture under what it serves (placer.drop).
	f.Add([]byte("CZ\x1e\xff00"))
	for family, seed := range [][]byte{
		{34, 0, 0, 11, 1, 0, 0},   // grid 6², p = 9
		{40, 0, 1, 7, 2, 1, 0},    // cycle, p = 49, dense wire
		{30, 0, 0, 3, 3, 0, 1},    // path, p = 9, sequential R4
		{60, 0, 1, 42, 4, 0, 0},   // random tree, p = 49
		{20, 0, 0, 5, 5, 1, 1},    // star, p = 9, dense wire, sequential R4
		{45, 0, 1, 9, 6, 0, 1},    // caterpillar, p = 49, sequential R4
		{50, 0, 1, 42, 7, 0, 0},   // G(n, 4/n), p = 49
		{30, 0, 0xff, 2, 8, 0, 0}, // cliques, p = 961
	} {
		f.Add(append([]byte{byte(family)}, seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		family := fuzzFamilies[next()%len(fuzzFamilies)]
		n := 2 + (next()|next()<<8)%1023
		p := 961
		if b := next(); b != 0xff {
			p = [2]int{9, 49}[b%2]
		}
		seed := int64(next())
		rng := rand.New(rand.NewSource(int64(next())))
		wire := [2]WireFormat{WirePruned, WireDense}[next()%2]
		r4 := [2]R4Strategy{R4Mapped, R4Sequential}[next()%2]
		g := family(n, func(u, v int) float64 { return float64(rng.Intn(10)) }, rng)
		h, err := HeightForP(p)
		if err != nil {
			t.Fatal(err)
		}
		ly, err := NewLayout(g, h, seed)
		if err != nil {
			t.Fatalf("n=%d p=%d seed=%d: %v", g.N(), p, seed, err)
		}
		name := func() string { return fmt.Sprintf("n=%d p=%d seed=%d %v r4=%d", g.N(), p, seed, wire, r4) }
		pl, err := BuildPlan(ly, p, wire, r4) // runs the check
		if err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
		res, err := pl.ExecuteOpts(ly, ExecOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
		if !identicalMatrices(res.Dist, mustJohnson(t, g)) {
			t.Errorf("%s: distances differ from Johnson's", name())
		}
		mach, err := pl.executeMachine(ly)
		if err != nil {
			t.Fatalf("%s: machine: %v", name(), err)
		}
		costIsReport(t, name(), planCost(t, pl, ly), mach)
		if !identicalMatrices(mach.Dist, res.Dist) {
			t.Errorf("%s: machine distances differ from ExecuteOpts'", name())
		}
		if !reflect.DeepEqual(mach.Report, res.Report) {
			t.Errorf("%s: reports differ:\nExecuteOpts %+v\nmachine     %+v", name(), res.Report, mach.Report)
		}
		enc := pl.Encode()
		dec, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name(), err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Errorf("%s: a decoded plan re-encodes to other bytes", name())
		}
	})
}
