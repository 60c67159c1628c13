package apsp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// machineSolve is SparseAPSPWith on the reference semantics: the same
// symbolic phase, then executeMachine (one goroutine per rank) instead
// of ExecuteOpts. It is the one place tests reach the machine executor.
func machineSolve(g *graph.Graph, p int, opts SparseOptions) (*DistResult, error) {
	h, err := HeightForP(p)
	if err != nil {
		return nil, err
	}
	ly, pl, err := buildSymbolic(g, p, h, opts)
	if err != nil {
		return nil, err
	}
	return pl.executeMachine(ly)
}

// TestExecutorEquality is the executor's referee: for several graph
// families × all wire formats × both R4 strategies, ExecuteOpts (fused
// lowering, critical-path schedule) and the machine reference must
// agree on every observable — distances bit for bit, the full cost
// report, the per-level phase breakdown and the traffic matrix. The
// last two inputs are the end-to-end benchmark's own shapes
// (bench/gen.go, integer weights 1..9; TestServedWirePinned in the root
// package pins their counts). Together with TestSparseCostGolden (which
// pins the default against the golden table recorded from the machine
// executor) this is what keeps the reference and the served path one
// semantics. The grid and gnp shapes run again on real-valued weights,
// whose sums round: the executors must still agree bit for bit, since
// both fold every block in the one order the plan fixes.
func TestExecutorEquality(t *testing.T) {
	rng, realW := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(43))
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
		{"grid32x32", graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49},
		{"cycle800", graph.Cycle(800, integerWeights(rand.New(rand.NewSource(2)), 9)), 961},
		{"grid-real", graph.Grid2D(9, 9, graph.RandomWeights(realW, 0.5, 9.5)), 9},
		{"gnp-real", graph.RandomGNP(70, 0.08, graph.RandomWeights(realW, 0.5, 9.5), realW), 9},
	}
	for _, tc := range graphs {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, strat := range []R4Strategy{R4Mapped, R4Sequential} {
				name := fmt.Sprintf("%s/%v/r4=%d", tc.name, wire, strat)
				opts := SparseOptions{Seed: 11, Wire: wire, R4Strategy: strat}
				mach, err := machineSolve(tc.g, tc.p, opts)
				if err != nil {
					t.Fatalf("%s machine: %v", name, err)
				}
				flow, err := SparseAPSPWith(tc.g, tc.p, opts)
				if err != nil {
					t.Fatalf("%s dataflow: %v", name, err)
				}
				if !identicalMatrices(flow.Dist, mach.Dist) {
					x, a, b := 0, flow.Dist, mach.Dist
					for x < min(len(a.V), len(b.V)) && math.Float64bits(a.V[x]) == math.Float64bits(b.V[x]) {
						x++
					}
					t.Errorf("%s: distances differ between executors (%d×%d dataflow, %d×%d machine), first at entry %d", name, a.Rows, a.Cols, b.Rows, b.Cols, x)
				}
				if !reflect.DeepEqual(flow.Report, mach.Report) {
					t.Errorf("%s: reports differ:\ndataflow %+v\nmachine  %+v", name, flow.Report, mach.Report)
				}
				if !reflect.DeepEqual(flow.Phases, mach.Phases) {
					t.Errorf("%s: phase costs differ", name)
				}
				if !reflect.DeepEqual(flow.Traffic, mach.Traffic) {
					t.Errorf("%s: traffic matrices differ", name)
				}
			}
		}
	}
}

// countSink is a sink that only counts what a step charges.
type countSink struct{ flops, memory int64 }

func (s *countSink) AddFlops(n int64)      { s.flops += n }
func (s *countSink) AddMemory(delta int64) { s.memory += delta }

// TestOwnerUnitFoldsInPlace: a unit on its block's owner (unitRank)
// folds its product straight into the owned block and holds no unit
// beside it, so hosting it costs the owner no memory beyond its operands
// (hosting it in a unit of its own raised MaxMemory in 48 of E52's 224
// pruned sweep cells). A unit elsewhere holds its product for the reduce
// and leaves the rank's block alone. Both charge the same flops.
func TestOwnerUnitFoldsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	block := func(rows, cols int) *semiring.Matrix {
		m := semiring.NewMatrix(rows, cols)
		for i := range m.V {
			if rng.Intn(3) > 0 {
				m.V[i] = float64(1 + rng.Intn(9))
			}
		}
		return m
	}
	aik, akj, owned := block(4, 3), block(3, 5), block(4, 5)
	product := semiring.NewMatrix(4, 5)
	wantFlops := semiring.MulAddInto(product, aik, akj)
	folded := owned.Clone()
	semiring.MinInto(folded.V, product.V)
	for _, onOwner := range []bool{true, false} {
		rs := &rankState{A: owned.Clone(), aik: aik, akj: akj}
		var s countSink
		rs.unitProduct(&s, onOwner, 4, 5)
		wantA, wantUnit, wantMemory := owned, product, int64(20)
		if onOwner {
			wantA, wantUnit, wantMemory = folded, nil, 0
		}
		if !identicalMatrices(rs.A, wantA) {
			t.Errorf("owner %v: the owned block is not what the product leaves it", onOwner)
		}
		if (rs.unit == nil) != (wantUnit == nil) || wantUnit != nil && !identicalMatrices(rs.unit, wantUnit) {
			t.Errorf("owner %v: the unit held is not the product", onOwner)
		}
		if s.memory != wantMemory || s.flops != wantFlops {
			t.Errorf("owner %v: charged %d words of memory and %d flops, want %d and %d", onOwner, s.memory, s.flops, wantMemory, wantFlops)
		}
	}
}

// TestConcurrentDataflowExecute runs many dataflow Executes of one Plan
// concurrently (the oracle registry's warm serving pattern) and checks
// each against a reference run. Exercised under -race in CI: the lowered
// graph is shared, all mutable state must be per-Execute.
func TestConcurrentDataflowExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := graph.Grid2D(10, 10, integerWeights(rng, 10))
	ly, err := NewLayout(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.ExecuteOpts(ly, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*DistResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !identicalMatrices(results[i].Dist, want.Dist) || !reflect.DeepEqual(results[i].Report, want.Report) {
			t.Errorf("run %d: concurrent execute differs from reference", i)
		}
	}
}

// TestDataflowLoweringShape sanity-checks the lowered graph: every rank
// contributes nodes, every node is reachable from the seeds (the run
// retires all of them — a cycle or orphan would trip the executor's
// stall detector instead of hanging), the super-nodes partition the
// micro-nodes, merging coalesced something, and the program is cached
// across calls. On the benchmark's two shapes (pruned, mapped, seed 42)
// it pins the plan's op count and the lowered graph's super-node,
// micro-node and message counts, and an FNV-64a hash of prioSid — the
// frozen priority order every worker pops in — so a change to the
// priority model or the lowering cannot silently reorder the schedule.
func TestDataflowLoweringShape(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		p      int
		seed   int64
		counts [4]int // ops, super-nodes, micro-nodes, messages; zero = unpinned
		order  uint64 // prioSid hash; zero = unpinned
	}{
		{"grid10x10", graph.Grid2D(10, 10, integerWeights(rng, 10)), 9, 11, [4]int{}, 0},
		{"grid32x32", graph.Grid2D(32, 32, graph.UnitWeights), 49, 42, [4]int{81, 153, 463, 128}, 0x5181c886618b037d},
		{"cycle800", graph.Cycle(800, graph.UnitWeights), 961, 42, [4]int{465, 2750, 9437, 2157}, 0x757bfb3a89e689e4},
	} {
		t.Run(tc.name, func(t *testing.T) { checkLoweringShape(t, tc.g, tc.p, tc.seed, tc.counts, tc.order) })
	}
}

func checkLoweringShape(t *testing.T, g *graph.Graph, p int, seed int64, counts [4]int, order uint64) {
	h, err := HeightForP(p)
	if err != nil {
		t.Fatal(err)
	}
	ly, err := NewLayout(g, h, seed)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, p, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	prog := pl.dataflow()
	if got := [4]int{pl.OpCount(), len(prog.supers), len(prog.micros), len(prog.msgConsumer)}; counts != [4]int{} && got != counts {
		t.Errorf("ops / super-nodes / micro-nodes / messages = %v, want %v", got, counts)
	}
	h64 := fnv.New64a()
	for _, sid := range prog.prioSid {
		h64.Write(binary.LittleEndian.AppendUint32(nil, uint32(sid)))
	}
	if got := h64.Sum64(); order != 0 && got != order {
		t.Errorf("prioSid hash = %#016x, want %#016x: the priority order moved", got, order)
	}
	if prog != pl.dataflow() {
		t.Error("dataflow() not cached: two calls returned different programs")
	}
	if len(prog.seeds) != pl.P {
		t.Errorf("got %d seeds, want one head per rank (%d)", len(prog.seeds), pl.P)
	}
	perRank := make([]int, pl.P)
	for _, n := range prog.micros {
		perRank[n.rank]++
	}
	for r, c := range perRank {
		// At minimum: dfInit plus one dfMark per level.
		if c < 1+len(pl.Levels) {
			t.Errorf("rank %d has %d micro-nodes, want at least %d", r, c, 1+len(pl.Levels))
		}
	}
	for m, c := range prog.msgConsumer {
		if len(prog.micros[c].recvs) == 0 {
			t.Errorf("message %d points at node %d which has no recvs", m, c)
		}
	}
	// Super-node partition invariants: contiguous, same-rank,
	// program-order runs covering every micro-node exactly once.
	covered := 0
	for sid, s := range prog.supers {
		if s.count < 1 {
			t.Fatalf("super %d has count %d", sid, s.count)
		}
		covered += int(s.count)
		rank := prog.micros[s.first].rank
		for m := s.first; m < s.first+s.count; m++ {
			if prog.micros[m].rank != rank {
				t.Fatalf("super %d spans ranks", sid)
			}
			if prog.superOf[m] != int32(sid) {
				t.Fatalf("superOf[%d] = %d, want %d", m, prog.superOf[m], sid)
			}
		}
	}
	if covered != len(prog.micros) {
		t.Errorf("supers cover %d micro-nodes, want %d", covered, len(prog.micros))
	}
	if len(prog.supers) >= len(prog.micros) {
		t.Errorf("merging coalesced nothing (%d supers, %d micro-nodes)", len(prog.supers), len(prog.micros))
	}
	if got := pl.DataflowNodes(0); got != len(prog.supers) {
		t.Errorf("DataflowNodes = %d, want the super-node count %d", got, len(prog.supers))
	}
}

// BenchmarkPlanExecute times the executor against the machine
// reference on a warm plan — the serving-path hot loop. The benchmark
// matrix stays at p <= 225 so the CI 1x smoke run finishes quickly.
func BenchmarkPlanExecute(b *testing.B) {
	for _, bc := range []struct {
		side int
		p    int
	}{
		{20, 49},
		{30, 225},
	} {
		rng := rand.New(rand.NewSource(61))
		g := graph.Grid2D(bc.side, bc.side, integerWeights(rng, 10))
		h, err := HeightForP(bc.p)
		if err != nil {
			b.Fatal(err)
		}
		ly, err := NewLayout(g, h, 11)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := BuildPlan(ly, bc.p, WirePruned, R4Mapped)
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range []struct {
			name string
			run  func() (*DistResult, error)
		}{
			{"machine", func() (*DistResult, error) { return pl.executeMachine(ly) }},
			{"dataflow", func() (*DistResult, error) { return pl.ExecuteOpts(ly, ExecOpts{}) }},
		} {
			b.Run(fmt.Sprintf("grid%d_p%d/%s", bc.side, bc.p, ex.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ex.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
