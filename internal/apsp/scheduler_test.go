package apsp

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"sparseapsp/internal/graph"
)

// TestSchedulerDeterminism pins the cost-aware scheduler's replay
// guarantee: for a fixed plan and worker count, every Execute produces
// the identical distances, no matter how the workers interleave, and
// reports the cost report and per-level phases the machine reference
// charges. Run under -race in CI, so a data race in the ready set or the
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
	mach, err := pl.executeMachine(ly)
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
			if !reflect.DeepEqual(got.Report, mach.Report) {
				t.Fatalf("workers=%d run %d: the report is not the machine's", workers, run)
			}
			if !reflect.DeepEqual(got.Phases, mach.Phases) {
				t.Fatalf("workers=%d run %d: the phase costs are not the machine's", workers, run)
			}
		}
	}
}

// TestExecWorkers checks the explicit worker count: any positive count
// — one worker, several sharing the one ready set, and counts beyond
// the machine size, which ExecuteOpts caps at p — yields bit-identical
// results. Run under -race in CI.
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

// TestExecutorFailureInjection runs deliberately broken copies of a
// lowered program at 1, 2 and 3 workers. Each must end in an error —
// not a hang, not a crash — and leave no goroutine behind:
//   - one micro-node's op index out of range: the panic is contained,
//     and the error names the super-node and its rank;
//   - one super-node's dependency count raised by one: it never becomes
//     ready, and the run reports the stall.
func TestExecutorFailureInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := graph.Grid2D(9, 9, integerWeights(rng, 10))
	ly, err := NewLayout(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	// A clean run first: it starts the shared pool, whose workers belong
	// in the baseline.
	if _, err := pl.ExecuteOpts(ly, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	prog := pl.dataflow()

	badOp := *prog
	badOp.micros = slices.Clone(prog.micros)
	mi := slices.IndexFunc(badOp.micros, func(n dfNode) bool { return n.rank == 4 && n.kind < numOpKinds })
	badOp.micros[mi].op = int32(len(pl.Levels[badOp.micros[mi].level]))
	wantPanic := fmt.Sprintf("dataflow node %d (rank 4,", prog.superOf[mi])

	stalled := *prog
	stalled.supers = slices.Clone(prog.supers)
	sid := slices.IndexFunc(stalled.supers, func(s dfSuper) bool { return s.deps > 0 })
	stalled.supers[sid].deps++
	wantStall := regexp.MustCompile(fmt.Sprintf(`stalled after \d+ of %d ops`, len(prog.supers)))

	for _, workers := range []int{1, 2, 3} {
		run := func(prog *dfProgram) error {
			errc := make(chan error, 1)
			go func() {
				_, err := pl.execute(prog, pl.LayoutFor(g), ExecOpts{Workers: workers})
				errc <- err
			}()
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: execute hung", workers)
				return nil
			}
		}
		if err := run(&badOp); err == nil || !strings.Contains(err.Error(), wantPanic) || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d, bad op index: err = %v, want it to contain %q and \"panicked\"", workers, err, wantPanic)
		}
		if err := run(&stalled); err == nil || !wantStall.MatchString(err.Error()) {
			t.Errorf("workers=%d, raised deps: err = %v, want %q", workers, err, wantStall)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed runs, %d before", runtime.NumGoroutine(), base)
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
