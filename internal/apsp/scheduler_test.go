package apsp

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// TestSchedulerDeterminism pins the cost-aware scheduler's replay
// guarantee: for a fixed plan and worker count, every Execute produces
// the identical observables — distances, cost report, per-level phases
// and the traffic matrix — no matter how the workers interleave. Run
// under -race in CI, so a data race in the heaps / parking lot /
// completion path surfaces here too.
func TestSchedulerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := graph.Grid2D(10, 10, integerWeights(rng, 10))
	ly, err := NewLayout(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		o := ExecOpts{Kernel: semiring.KernelSerial, Executor: ExecDataflow,
			Schedule: ScheduleCritical, Fuse: FuseOn, Workers: workers}
		want, err := pl.ExecuteOpts(ly, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for run := 1; run < 10; run++ {
			got, err := pl.ExecuteOpts(pl.LayoutFor(g), o)
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, run, err)
			}
			if !identicalMatrices(got.Dist, want.Dist) {
				t.Fatalf("workers=%d run %d: distances differ", workers, run)
			}
			if !reflect.DeepEqual(got.Report, want.Report) {
				t.Fatalf("workers=%d run %d: reports differ", workers, run)
			}
			if !reflect.DeepEqual(got.Phases, want.Phases) {
				t.Fatalf("workers=%d run %d: phase costs differ", workers, run)
			}
			if !reflect.DeepEqual(got.Traffic, want.Traffic) {
				t.Fatalf("workers=%d run %d: traffic matrices differ", workers, run)
			}
		}
	}
}

// TestFusionBitIdentity is the fusion-boundary property test: across
// graph families × wire formats × both R4 strategies, every point of
// the (schedule, fuse) ablation grid must agree with the default
// configuration on all observables. Fused panel chains interleave
// their ledger charges through the PanelUpdateMultiScratch hooks and
// coalesced relay runs preserve per-rank program order, so the charge
// sequence — and therefore every report — is invariant.
func TestFusionBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(8, 8, integerWeights(rng, 10)), 9},
		{"gnp", graph.RandomGNP(60, 0.08, integerWeights(rng, 5), rng), 9},
		{"tree", graph.RandomTree(80, graph.UnitWeights, rng), 49},
		{"rmat", graph.RMAT(6, 3, integerWeights(rng, 4), rng), 9},
		{"star", graph.Star(50, graph.UnitWeights), 9},
	}
	variants := []struct {
		sched Schedule
		fuse  Fuse
	}{
		{ScheduleCritical, FuseOff},
		{ScheduleFIFO, FuseOn},
		{ScheduleFIFO, FuseOff},
	}
	for _, tc := range graphs {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, strat := range []R4Strategy{R4Mapped, R4Sequential} {
				base := SparseOptions{Seed: 13, Wire: wire, R4Strategy: strat}
				want, err := SparseAPSPWith(tc.g, tc.p, base)
				if err != nil {
					t.Fatalf("%s/%v/r4=%d default: %v", tc.name, wire, strat, err)
				}
				for _, v := range variants {
					name := fmt.Sprintf("%s/%v/r4=%d/%v/fuse=%v", tc.name, wire, strat, v.sched, v.fuse)
					opts := base
					opts.Schedule, opts.Fuse = v.sched, v.fuse
					got, err := SparseAPSPWith(tc.g, tc.p, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !identicalMatrices(got.Dist, want.Dist) {
						t.Errorf("%s: distances differ from default schedule", name)
					}
					if !reflect.DeepEqual(got.Report, want.Report) {
						t.Errorf("%s: reports differ:\nablation %+v\ndefault  %+v", name, got.Report, want.Report)
					}
					if !reflect.DeepEqual(got.Phases, want.Phases) {
						t.Errorf("%s: phase costs differ", name)
					}
					if !reflect.DeepEqual(got.Traffic, want.Traffic) {
						t.Errorf("%s: traffic matrices differ", name)
					}
				}
			}
		}
	}
}

// TestExecWorkers checks the explicit worker-count knob: any positive
// count — including one beyond the machine size, which ExecuteOpts
// caps — yields bit-identical results, and the fused lowering
// schedules strictly fewer nodes than the 1:1 one.
func TestExecWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := graph.Grid2D(9, 9, integerWeights(rng, 10))
	ly, err := NewLayout(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	if on, off := pl.DataflowNodes(FuseOn), pl.DataflowNodes(FuseOff); on >= off {
		t.Errorf("DataflowNodes: fused %d >= unfused %d, fusion coalesced nothing", on, off)
	}
	var want *DistResult
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, sched := range []Schedule{ScheduleCritical, ScheduleFIFO} {
			got, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{
				Kernel: semiring.KernelSerial, Executor: ExecDataflow,
				Schedule: sched, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, sched, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !identicalMatrices(got.Dist, want.Dist) || !reflect.DeepEqual(got.Report, want.Report) {
				t.Errorf("workers=%d %v: result differs from workers=1", workers, sched)
			}
		}
	}
}

// TestOrderRCM checks the ordering knob: an Order=rcm solve must
// produce the same distances as the natural-order solve, reported in
// the input vertex order (integer weights keep the path sums
// float64-exact across orderings), and combining the knob with an
// explicit Layout — built for a different labeling — must be refused.
func TestOrderRCM(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(9, 9, integerWeights(rng, 10)), 9},
		{"tree", graph.RandomTree(90, graph.UnitWeights, rng), 49},
		{"star", graph.Star(60, graph.UnitWeights), 9},
	}
	for _, tc := range graphs {
		nat, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 7})
		if err != nil {
			t.Fatalf("%s natural: %v", tc.name, err)
		}
		rcm, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 7, Order: OrderRCM})
		if err != nil {
			t.Fatalf("%s rcm: %v", tc.name, err)
		}
		if !identicalMatrices(rcm.Dist, nat.Dist) {
			t.Errorf("%s: rcm distances differ from natural order", tc.name)
		}
	}
	g := graphs[0].g
	ly, err := NewLayout(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SparseAPSPWith(g, 9, SparseOptions{Seed: 7, Order: OrderRCM, Layout: ly}); err == nil {
		t.Error("Order=rcm with an explicit Layout: want an error, got nil")
	}
}

// TestProfileLabels is the pprof smoke test: with labels enabled, a
// CPU profile taken across dataflow solves must contain the op_kind
// label key, proving -cpuprofile runs attribute time per op class.
func TestProfileLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling smoke test; skipped in -short")
	}
	rng := rand.New(rand.NewSource(89))
	g := graph.Grid2D(14, 14, integerWeights(rng, 10))
	ly, err := NewLayout(g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 49, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	EnableProfileLabels(true)
	defer EnableProfileLabels(false)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot start CPU profile: %v", err)
	}
	// ~1s of solving so the 100 Hz sampler lands inside labeled nodes.
	for i := 0; i < 60; i++ {
		if _, err := pl.ExecuteOpts(ly, ExecOpts{Kernel: semiring.KernelSerial, Executor: ExecDataflow}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}
	for _, key := range []string{"op_kind", "phase", "level"} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("CPU profile lacks the %q label key", key)
		}
	}
}
