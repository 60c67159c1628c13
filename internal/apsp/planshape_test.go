package apsp

import (
	"fmt"
	"math/rand"
	"testing"

	"sparseapsp/internal/graph"
)

// Structural invariants of the schedule, checked on the Plan alone — no
// weights, no execute. The numeric suites (golden table, executor
// equality) compare configurations with each other and would all pass
// on a plan that ships panels nobody folds; these would not.

// forEachShapePlan builds a plan for every graph family × machine size
// × wire × R4 strategy of the structural grid, and for the benchmark's two
// served shapes at its ND seed, requires that it decodes (roundTrips) and
// hands it to check.
func forEachShapePlan(t *testing.T, check func(t *testing.T, name string, pl *Plan)) {
	build := func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		pl, err := BuildPlan(ly, p, wire, r4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		roundTrips(t, name, pl)
		check(t, name, pl)
	}
	forEachShape(t, build)
	for _, s := range []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid32x32", graph.Grid2D(32, 32, graph.UnitWeights), 49},
		{"cycle800", graph.Cycle(800, graph.UnitWeights), 961},
	} {
		ly := testLayout(t, s.g, s.p)
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				build(t, fmt.Sprintf("%s/p=%d/%v/r4=%d", s.name, s.p, wire, r4), ly, s.p, wire, r4)
			}
		}
	}
}

// forEachShape is the structural grid itself: every graph family ×
// machine size × wire × R4 strategy, as the inputs of a plan build.
func forEachShape(t *testing.T, check func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy)) {
	rng := rand.New(rand.NewSource(17))
	// A plain G(n, 4/n) draw (graph.RandomGNP threads a spanning path
	// through its vertices): ~e⁻⁴·n vertices stay isolated, the input
	// that sends the partitioner into lopsided splits (ROADMAP item 1).
	gnp := graph.New(240)
	for u := 0; u < gnp.N(); u++ {
		for v := u + 1; v < gnp.N(); v++ {
			if rng.Float64() < 4.0/float64(gnp.N()) {
				gnp.AddEdge(u, v, 1)
			}
		}
	}
	isolated := 0
	for v := 0; v < gnp.N(); v++ {
		if gnp.Degree(v) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("the G(n,4/n) draw has no isolated vertex; pick another seed")
	}
	cliques := graph.New(32)
	for c := 0; c < 2; c++ {
		for u := 0; u < 16; u++ {
			for v := u + 1; v < 16; v++ {
				cliques.AddEdge(16*c+u, 16*c+v, 1)
			}
		}
	}
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid2D(16, 16, graph.UnitWeights)},
		{"path", graph.Path(200, graph.UnitWeights)},
		{"cycle", graph.Cycle(200, graph.UnitWeights)},
		{"tree", graph.RandomTree(220, graph.UnitWeights, rng)},
		{"star", graph.Star(120, graph.UnitWeights)},
		{"caterpillar", graph.Caterpillar(60, 3, graph.UnitWeights)},
		{"gnp-isolated", gnp},
		{"two-cliques", cliques},
		{"rmat", graph.RMAT(8, 3, graph.UnitWeights, rng)},
	}
	for _, f := range families {
		for _, p := range []int{9, 49, 225} {
			h, err := HeightForP(p)
			if err != nil {
				t.Fatal(err)
			}
			ly, err := NewLayout(f.g, h, 11)
			if err != nil {
				t.Fatalf("%s p=%d: %v", f.name, p, err)
			}
			for _, wire := range []WireFormat{WirePruned, WireDense} {
				for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
					check(t, fmt.Sprintf("%s/p=%d/%v/r4=%d", f.name, p, wire, r4), ly, p, wire, r4)
				}
			}
		}
	}
}

// TestPlanShipsOnlyWhatIsFolded: every planned panel broadcast reaches
// a processor that folds it and no processor that does not. No R3,
// R4Aik or R4Akj op is consumer-less; an R3 group is its root plus its
// consumers; an R4 panel member outside its consumers relays (a unit
// processor whose unit dropDead took out); an R4 panel consumer hosts a
// planned unit with that panel as its operand; a unit is handed its
// column panel, and its row panel too unless it computes a diagonal
// block, whose row panel is the column panel's mirror; a diagonal block's rank that captures an R3 panel
// captures its row panel; and level 1 has no R3 at all — leaves have no
// descendants, R_1^3 = ∅.
func TestPlanShipsOnlyWhatIsFolded(t *testing.T) {
	forEachShapePlan(t, func(t *testing.T, name string, pl *Plan) {
		for li, ops := range pl.Levels {
			unitOf := make(map[int]Op)
			for _, op := range ops {
				if op.Kind == opUnit {
					unitOf[op.Root] = op
				}
			}
			gotAik, gotAkj, gotRow, gotCol := map[int]bool{}, map[int]bool{}, map[int]bool{}, map[int]bool{}
			for x, op := range ops {
				kind := dfKindNames[op.Kind]
				switch op.Kind {
				case opR3Row, opR3Col, opR4Aik, opR4Akj:
					if len(op.Consumers) == 0 {
						t.Errorf("%s: level %d %s op %d (block %d,%d) has no consumer", name, li+1, kind, x, op.BI, op.BJ)
					}
				}
				if op.Kind == opR4Aik || op.Kind == opR4Akj {
					relays := op.relays()
					for p, r := range op.Group {
						if p > 0 && !relays[p] && !op.holdsMirror(p) && !contains(op.Consumers, r) {
							t.Errorf("%s: level %d %s op %d: member %d neither folds nor relays", name, li+1, kind, x, r)
						}
					}
				}
				switch op.Kind {
				case opR3Row, opR3Col:
					for _, r := range op.Consumers {
						if op.Kind == opR3Row {
							gotRow[r] = true
						} else {
							gotCol[r] = true
						}
					}
					if li == 0 {
						t.Errorf("%s: level 1 plans an R3 broadcast (op %d)", name, x)
					}
					if !contains(op.Group, op.Root) {
						t.Errorf("%s: level %d op %d: root %d outside its group", name, li+1, x, op.Root)
					}
					for p, r := range op.Group {
						if r != op.Root && !contains(op.Consumers, r) && !op.holdsMirror(p) {
							t.Errorf("%s: level %d op %d: member %d only relays", name, li+1, x, r)
						}
					}
				case opR4Aik:
					for _, r := range op.Consumers {
						if u, ok := unitOf[r]; !ok || u.BI != op.BI || u.K != op.BJ {
							t.Errorf("%s: level %d %s op %d: consumer %d hosts no unit over panel (%d,%d)", name, li+1, kind, x, r, op.BI, op.BJ)
						}
						gotAik[r] = true
					}
				case opR4Akj:
					for _, r := range op.Consumers {
						if u, ok := unitOf[r]; !ok || u.K != op.BI || u.BJ != op.BJ {
							t.Errorf("%s: level %d %s op %d: consumer %d hosts no unit over panel (%d,%d)", name, li+1, kind, x, r, op.BI, op.BJ)
						}
						gotAkj[r] = true
					}
				}
			}
			for r, u := range unitOf {
				if !gotAik[r] || !gotAkj[r] && u.BI != u.BJ {
					t.Errorf("%s: level %d: unit on rank %d is missing an operand broadcast", name, li+1, r)
				}
			}
			for r := range gotCol {
				if i, j := blockOf(r, pl.NSup); i == j && !gotRow[r] {
					t.Errorf("%s: level %d: diagonal rank %d captures an R3 column panel without its row panel", name, li+1, r)
				}
			}
		}
	})
}

// TestLevelOrderIsLegal checks the premise of running R4 and the
// transposes ahead of R3 on every plan instead of arguing it once: per
// level, the blocks R4 writes (reduce roots, sequential owners,
// transpose destinations) are disjoint from every block R3 reads as a
// payload or writes at a consumer, and the blocks R4 reads (its panels,
// the transpose sources) are disjoint from the ones R3 writes. With
// that, the two regions commute and distances cannot depend on which
// runs first.
func TestLevelOrderIsLegal(t *testing.T) {
	type block struct{ i, j int }
	forEachShapePlan(t, func(t *testing.T, name string, pl *Plan) {
		for li, ops := range pl.Levels {
			r4Writes, r4Reads := map[block]bool{}, map[block]bool{}
			for _, op := range ops {
				switch op.Kind {
				case opReduce:
					r4Writes[block{op.BI, op.BJ}] = true
				case opSeq:
					r4Writes[block{op.BI, op.BJ}] = true
					r4Reads[block{op.BI, op.K}] = true
					r4Reads[block{op.K, op.BJ}] = true
				case opTrans:
					r4Writes[block{op.BJ, op.BI}] = true
					r4Reads[block{op.BI, op.BJ}] = true
				case opR4Aik, opR4Akj:
					r4Reads[block{op.BI, op.BJ}] = true
				}
			}
			for x, op := range ops {
				if op.Kind != opR3Row && op.Kind != opR3Col {
					continue
				}
				if r4Writes[block{op.BI, op.BJ}] {
					t.Errorf("%s: level %d R3 op %d ships block (%d,%d), which R4 writes", name, li+1, x, op.BI, op.BJ)
				}
				for _, r := range op.Consumers {
					i, j := blockOf(r, pl.NSup)
					if r4Writes[block{i, j}] || r4Reads[block{i, j}] {
						t.Errorf("%s: level %d R3 op %d updates block (%d,%d), which R4 touches", name, li+1, x, i, j)
					}
				}
			}
		}
	})
}
