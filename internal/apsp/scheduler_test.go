package apsp

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"testing"

	"sparseapsp/internal/graph"
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
		o := ExecOpts{Workers: workers}
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

// TestExecWorkers checks the explicit worker count: any positive count
// — one worker (the priority bitmap), several (heaps + stealing +
// parking lot), and counts beyond the machine size, which ExecuteOpts
// caps at p — yields bit-identical results. Run under -race in CI, so
// both ready-queue implementations are exercised there.
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
	var want *DistResult
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !identicalMatrices(got.Dist, want.Dist) || !reflect.DeepEqual(got.Report, want.Report) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
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
		if _, err := pl.ExecuteOpts(ly, ExecOpts{}); err != nil {
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
