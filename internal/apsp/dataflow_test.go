package apsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// TestExecutorEquality is the dataflow executor's referee: for several
// graph families × all wire formats × both R4 strategies, the machine
// and dataflow executors must agree on every observable — distances
// bit for bit, the full cost report, the per-level phase breakdown and
// the traffic matrix. Together with TestSparseCostGolden (which pins
// the dataflow default against the golden table recorded from the
// machine executor) this makes the two engines interchangeable.
func TestExecutorEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, strat := range []R4Strategy{R4Mapped, R4Sequential} {
				name := fmt.Sprintf("%s/%v/r4=%d", tc.name, wire, strat)
				mach, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{
					Seed: 11, Wire: wire, R4Strategy: strat, Executor: ExecMachine})
				if err != nil {
					t.Fatalf("%s machine: %v", name, err)
				}
				flow, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{
					Seed: 11, Wire: wire, R4Strategy: strat, Executor: ExecDataflow})
				if err != nil {
					t.Fatalf("%s dataflow: %v", name, err)
				}
				if !identicalMatrices(flow.Dist, mach.Dist) {
					t.Errorf("%s: distances differ between executors", name)
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

// TestExecutorEqualityPooledKernel repeats the equality check with the
// pooled kernel, which nests pool jobs inside the dataflow drain loops
// — the configuration that would deadlock if the drains ran on the
// kernel pool's job workers instead of Pool.Drive's dedicated
// goroutines.
func TestExecutorEqualityPooledKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := graph.Grid2D(12, 12, integerWeights(rng, 10))
	mach, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 5, Kernel: semiring.KernelPooled, Executor: ExecMachine})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 5, Kernel: semiring.KernelPooled, Executor: ExecDataflow})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalMatrices(flow.Dist, mach.Dist) || !reflect.DeepEqual(flow.Report, mach.Report) {
		t.Error("pooled-kernel dataflow run differs from machine run")
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
	want, err := pl.ExecuteWith(ly, semiring.KernelSerial, ExecDataflow)
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
			results[i], errs[i] = pl.ExecuteWith(pl.LayoutFor(g), semiring.KernelSerial, ExecDataflow)
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
// stall detector instead of hanging), and the program is cached across
// calls.
func TestDataflowLoweringShape(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.Grid2D(10, 10, integerWeights(rng, 10))
	ly, err := NewLayout(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []Fuse{FuseOn, FuseOff} {
		prog := pl.dataflow(fuse)
		if prog != pl.dataflow(fuse) {
			t.Errorf("fuse=%v: dataflow() not cached: two calls returned different programs", fuse)
		}
		if len(prog.seeds) != pl.P {
			t.Errorf("fuse=%v: got %d seeds, want one head per rank (%d)", fuse, len(prog.seeds), pl.P)
		}
		perRank := make([]int, pl.P)
		for _, n := range prog.micros {
			perRank[n.rank]++
		}
		for r, c := range perRank {
			// At minimum: dfInit plus one dfMark per level.
			if c < 1+len(pl.Levels) {
				t.Errorf("fuse=%v: rank %d has %d micro-nodes, want at least %d", fuse, r, c, 1+len(pl.Levels))
			}
		}
		for m, c := range prog.msgConsumer {
			if len(prog.micros[c].recvs) == 0 {
				t.Errorf("fuse=%v: message %d points at node %d which has no recvs", fuse, m, c)
			}
		}
		// Super-node partition invariants: contiguous, same-rank,
		// program-order runs covering every micro-node exactly once.
		covered := 0
		for sid, s := range prog.supers {
			if s.count < 1 {
				t.Fatalf("fuse=%v: super %d has count %d", fuse, sid, s.count)
			}
			covered += int(s.count)
			rank := prog.micros[s.first].rank
			for m := s.first; m < s.first+s.count; m++ {
				if prog.micros[m].rank != rank {
					t.Fatalf("fuse=%v: super %d spans ranks", fuse, sid)
				}
				if prog.superOf[m] != int32(sid) {
					t.Fatalf("fuse=%v: superOf[%d] = %d, want %d", fuse, m, prog.superOf[m], sid)
				}
			}
		}
		if covered != len(prog.micros) {
			t.Errorf("fuse=%v: supers cover %d micro-nodes, want %d", fuse, covered, len(prog.micros))
		}
		if fuse == FuseOff && len(prog.supers) != len(prog.micros) {
			t.Errorf("fuse=off: %d supers for %d micro-nodes, want 1:1", len(prog.supers), len(prog.micros))
		}
		if fuse == FuseOn && len(prog.supers) >= len(prog.micros) {
			t.Errorf("fuse=on: merging coalesced nothing (%d supers, %d micro-nodes)", len(prog.supers), len(prog.micros))
		}
	}
}

// BenchmarkPlanExecute compares the two executors on a warm plan — the
// serving-path hot loop. The benchmark matrix stays at p <= 225 so the
// CI 1x smoke run finishes quickly; BENCH_exec.json (apspbench -exp
// exec) carries the p=961 numbers.
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
		for _, ex := range []Executor{ExecMachine, ExecDataflow} {
			b.Run(fmt.Sprintf("grid%d_p%d/%v", bc.side, bc.p, ex), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pl.ExecuteWith(ly, semiring.KernelSerial, ex); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
