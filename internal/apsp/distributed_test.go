package apsp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/partition"
)

// TestSparseAPSPMatchesFloydWarshall is the end-to-end correctness
// gate for the paper's algorithm: on every workload family and every
// valid machine size, the distributed result must equal the classical
// sequential result.
func TestSparseAPSPMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for name, g := range testGraphs(rng) {
		want, _ := FloydWarshall(g)
		for _, p := range []int{1, 9, 49} {
			res, err := SparseAPSPWith(g, p, SparseOptions{Seed: 5})
			if err != nil {
				t.Errorf("%s p=%d: %v", name, p, err)
				continue
			}
			if !res.Dist.EqualTol(want, 1e-9) {
				t.Errorf("%s p=%d: SparseAPSPWith diverges from Floyd-Warshall", name, p)
			}
		}
	}
}

func TestSparseAPSPRejectsBadP(t *testing.T) {
	g := graph.Path(5, graph.UnitWeights)
	for _, p := range []int{2, 4, 16, 25, 100} {
		if _, err := SparseAPSPWith(g, p, SparseOptions{Seed: 1}); err == nil {
			t.Errorf("p=%d: expected error", p)
		}
	}
}

func TestDist2DFWMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for name, g := range testGraphs(rng) {
		want, _ := FloydWarshall(g)
		for _, p := range []int{1, 4, 9, 16} {
			if g.N() == 0 && p > 1 {
				continue // zero-size blocks everywhere are legal but pointless
			}
			res, err := Dist2DFW(g, p)
			if err != nil {
				t.Errorf("%s p=%d: %v", name, p, err)
				continue
			}
			if !res.Dist.EqualTol(want, 1e-9) {
				t.Errorf("%s p=%d: Dist2DFW diverges from Floyd-Warshall", name, p)
			}
		}
	}
}

func TestDCAPSPMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for name, g := range testGraphs(rng) {
		want, _ := FloydWarshall(g)
		for _, p := range []int{1, 4, 9} {
			for _, cyc := range []int{1, 2, 4} {
				res, err := DCAPSP(g, p, cyc)
				if err != nil {
					t.Errorf("%s p=%d cyc=%d: %v", name, p, cyc, err)
					continue
				}
				if !res.Dist.EqualTol(want, 1e-9) {
					t.Errorf("%s p=%d cyc=%d: DCAPSP diverges from Floyd-Warshall", name, p, cyc)
				}
			}
		}
	}
}

// The distributed sparse solver and the sequential SuperFW run the same
// elimination schedule, so with the same seed their results must agree
// bit-for-bit modulo floating-point association, which a tight
// tolerance covers.
func TestSparseAPSPMatchesSuperFW(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := graph.Grid2D(9, 9, graph.RandomWeights(rng, 1, 10))
	seq, err := SuperFW(g, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Dist.EqualTol(seq.Dist, 1e-9) {
		t.Error("distributed and sequential supernodal solvers disagree")
	}
}

// Property: all three distributed solvers agree with Johnson on random
// connected graphs.
func TestQuickDistributedSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(50)
		g := graph.RandomGNP(n, 3.0/float64(n), graph.RandomWeights(rng, 1, 10), rng)
		want, err := Johnson(g)
		if err != nil {
			return false
		}
		sp, err := SparseAPSPWith(g, 9, SparseOptions{Seed: seed})
		if err != nil || !sp.Dist.EqualTol(want, 1e-9) {
			return false
		}
		fw, err := Dist2DFW(g, 9)
		if err != nil || !fw.Dist.EqualTol(want, 1e-9) {
			return false
		}
		dc, err := DCAPSP(g, 9, 2)
		if err != nil || !dc.Dist.EqualTol(want, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The report must be populated: nonzero communication for p > 1 on a
// connected graph, and per-rank memory close to the block sizes.
func TestSparseAPSPReportPopulated(t *testing.T) {
	g := graph.Grid2D(12, 12, graph.UnitWeights)
	res, err := SparseAPSPWith(g, 9, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Critical.Latency == 0 || rep.Critical.Bandwidth == 0 || rep.Critical.Flops == 0 {
		t.Errorf("empty critical path: %+v", rep.Critical)
	}
	if rep.MaxMemory == 0 {
		t.Error("no memory recorded")
	}
	if rep.TotalMessages == 0 || rep.TotalWords == 0 {
		t.Error("no traffic recorded")
	}
	if len(rep.PerRank) != 9 {
		t.Errorf("per-rank costs length %d", len(rep.PerRank))
	}
}

// Latency on a fixed machine must not depend on n (it is O(log²p)):
// doubling the grid size should leave the sparse algorithm's message
// count along the critical path unchanged.
func TestSparseAPSPLatencyIndependentOfN(t *testing.T) {
	l1 := sparseLatency(t, 10)
	l2 := sparseLatency(t, 20)
	if l1 != l2 {
		t.Errorf("latency changed with n: %d vs %d", l1, l2)
	}
}

func sparseLatency(t *testing.T, side int) int64 {
	t.Helper()
	g := graph.Grid2D(side, side, graph.UnitWeights)
	res, err := SparseAPSPWith(g, 9, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res.Report.Critical.Latency
}

// The dense 2D FW latency must grow with √p while the sparse
// algorithm's stays polylogarithmic — the headline Table 2 row 3.
func TestLatencySeparationSparseVsDense(t *testing.T) {
	g := graph.Grid2D(24, 24, graph.UnitWeights)
	sparse9, err := SparseAPSPWith(g, 9, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sparse49, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense9, err := Dist2DFW(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	dense49, err := Dist2DFW(g, 49)
	if err != nil {
		t.Fatal(err)
	}
	// Dense latency grows linearly in √p (3 -> 7 is ~2.3x); sparse grows
	// like log²p (4 -> 9ish, bounded well below the dense growth at scale).
	denseGrowth := float64(dense49.Report.Critical.Latency) / float64(dense9.Report.Critical.Latency)
	sparseGrowth := float64(sparse49.Report.Critical.Latency) / float64(sparse9.Report.Critical.Latency)
	if denseGrowth < 1.5 {
		t.Errorf("dense latency growth %.2f, want ≥ 1.5 (√p scaling)", denseGrowth)
	}
	if sparse49.Report.Critical.Latency >= dense49.Report.Critical.Latency {
		t.Errorf("sparse latency %d not below dense %d at p=49",
			sparse49.Report.Critical.Latency, dense49.Report.Critical.Latency)
	}
	_ = sparseGrowth
}

// The Section 5.2.2 "trivial strategy" ablation must produce identical
// distances and can only lose on latency: 2q serialized receives per
// R_l^4 block against the mapped strategy's panel broadcasts plus an
// O(log q) reduce. How much it loses depends on q = 2^(a−l), the pivots
// under a block. Since R4 starts each level (E29) its latency is no
// longer hidden behind R3's, and on a small machine the two are on a
// par: at p = 49 (h = 3) q ≤ 4, and 2q receives cost what log q reduce
// steps and the two panel broadcasts do — 24 messages either way on the
// 12×12 grid — so the assertion there is "not below". The advantage is
// strict once a block has 8 pivots under it: p = 225 (h = 4), 38
// against 43 on the 24×24 grid.
func TestR4SequentialStrategyMatchesAndCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, tc := range []struct{ side, p int }{{12, 9}, {12, 49}, {24, 225}} {
		g := graph.Grid2D(tc.side, tc.side, graph.RandomWeights(rng, 1, 10))
		want, _ := FloydWarshall(g)
		mapped, err := SparseAPSPWith(g, tc.p, SparseOptions{Seed: 5, R4Strategy: R4Mapped})
		if err != nil {
			t.Fatalf("mapped p=%d: %v", tc.p, err)
		}
		seq, err := SparseAPSPWith(g, tc.p, SparseOptions{Seed: 5, R4Strategy: R4Sequential})
		if err != nil {
			t.Fatalf("sequential p=%d: %v", tc.p, err)
		}
		if !mapped.Dist.EqualTol(want, 1e-9) || !seq.Dist.EqualTol(want, 1e-9) {
			t.Fatalf("p=%d: a strategy diverges from Floyd-Warshall", tc.p)
		}
		ml, sl := mapped.Report.Critical.Latency, seq.Report.Critical.Latency
		if tc.p >= 49 && sl < ml {
			t.Errorf("p=%d: sequential latency %d below mapped %d", tc.p, sl, ml)
		}
		if tc.p >= 225 && sl <= ml {
			t.Errorf("p=%d: sequential latency %d not above mapped %d", tc.p, sl, ml)
		}
		t.Logf("p=%d (%d×%d grid): mapped %d, sequential %d critical messages", tc.p, tc.side, tc.side, ml, sl)
	}
}

// Full-depth machine: p = 961 (h = 5, a 31×31 grid of ranks). Slow, so
// skipped under -short; exercises five eTree levels end to end.
func TestSparseAPSPAtP961(t *testing.T) {
	if testing.Short() {
		t.Skip("p=961 solve is slow; run without -short")
	}
	rng := rand.New(rand.NewSource(107))
	g := graph.Grid2D(32, 32, graph.RandomWeights(rng, 1, 10))
	res, err := SparseAPSPWith(g, 961, SparseOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Johnson(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dist.EqualTol(want, 1e-9) {
		t.Fatal("p=961 sparse solve diverges from Johnson")
	}
	if err := VerifyDistances(g, res.Dist); err != nil {
		t.Fatal(err)
	}
	// log²(961) ≈ 98: latency stays within a small constant of it.
	if lat := res.Report.Critical.Latency; lat > 4*98 {
		t.Errorf("latency %d not O(log²p)", lat)
	}
	if len(res.Phases) != 5 {
		t.Errorf("phases = %d, want 5 levels", len(res.Phases))
	}
}

// Fully distributed pipeline: the ordering comes from the distributed
// partitioner and the solve runs on the same machine size; the result
// must still be exact.
func TestSparseAPSPWithDistributedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	g := graph.Grid2D(24, 24, graph.RandomWeights(rng, 1, 10))
	nd, ndRep, err := partition.DistributedND(g, 49, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.CheckSeparation(g, nd); err != nil {
		t.Fatal(err)
	}
	ly := NewLayoutFromOrdering(g, nd)
	pl, err := BuildPlan(ly, 49, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.ExecuteOpts(ly, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FloydWarshall(g)
	if !res.Dist.EqualTol(want, 1e-9) {
		t.Fatal("distributed-ordering solve diverges from Floyd-Warshall")
	}
	// Preprocessing cost is subsumed by the solve at realistic n²/p
	// (Section 5.4.4; see EXPERIMENTS.md E9 for the small-size caveat
	// of the simplified distributed partitioner). The paper's solve
	// ships dense payloads, so that is the wire the claim is checked
	// against: the default wire moves fewer words than this
	// partitioner does at n=576.
	densePl, err := BuildPlan(ly, 49, WireDense, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := densePl.ExecuteOpts(ly, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ndRep.Critical.Bandwidth > dense.Report.Critical.Bandwidth {
		t.Errorf("preprocessing bandwidth %d exceeds dense-wire solve bandwidth %d",
			ndRep.Critical.Bandwidth, dense.Report.Critical.Bandwidth)
	}
}

func TestSparseAPSPRejectsMismatchedLayout(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights)
	ly, err := NewLayout(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(ly, 49, WirePruned, R4Mapped); err == nil {
		t.Error("expected error for mismatched layout height")
	}
}

// TestExecuteRejectsOtherDissection: a layout of the same height and
// supernode count but another dissection is refused, not run against a
// schedule planned for other blocks — by Plan.Cost too, with the same
// error.
func TestExecuteRejectsOtherDissection(t *testing.T) {
	g := graph.Grid2D(12, 12, integerWeights(rand.New(rand.NewSource(1)), 9))
	planned, err := NewLayout(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewLayout(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(planned.ND.Perm, other.ND.Perm) {
		t.Fatal("ND seeds 1 and 2 give the same ordering; the test needs two")
	}
	pl, err := BuildPlan(planned, 49, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.ExecuteOpts(other, ExecOpts{})
	if err == nil {
		t.Error("ExecuteOpts ran a plan on a layout from another dissection")
	}
	if _, costErr := pl.Cost(other); costErr == nil || costErr.Error() != err.Error() {
		t.Errorf("Plan.Cost on a layout from another dissection: %v, ExecuteOpts: %v", costErr, err)
	}
	if _, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{}); err != nil {
		t.Errorf("ExecuteOpts refused the plan's own dissection: %v", err)
	}
}
