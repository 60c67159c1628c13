package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
)

// smallConfig keeps unit tests fast; the real sweeps run in the
// benchmark suite and cmd/apspbench.
func smallConfig() Config {
	return Config{GridSides: []int{8, 12}, Ps: []int{9, 49}, Seed: 7, CyclicFactor: 2}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Add("xyz", 3)
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"X: demo", "a", "bb", "xyz", "2.5", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestSuiteTables(t *testing.T) {
	s, err := NewSuite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(s.Points))
	}
	chains, err := s.CriticalChains()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{
		s.Table2Memory(), s.Table2Bandwidth(), s.Table2Latency(), chains,
		s.ReductionFactors(), s.LowerBounds(),
	} {
		if len(tb.Rows) != 4 {
			t.Errorf("%s: %d rows, want 4", tb.ID, len(tb.Rows))
		}
		if tb.String() == "" {
			t.Errorf("%s renders empty", tb.ID)
		}
	}
	// E53's classes split the executed critical words.
	for _, pt := range s.Points {
		traffic, err := pt.plan.Traffic(pt.layout)
		if err != nil {
			t.Fatal(err)
		}
		var words int64
		for _, seg := range traffic.WordsChain {
			words += seg.Words
		}
		if words != pt.Sparse.Critical.Bandwidth {
			t.Errorf("n=%d p=%d: the words chain sums to %d, the solve charged %d", pt.N, pt.P, words, pt.Sparse.Critical.Bandwidth)
		}
	}
}

// The Table 2 shape assertions on the measured sweep: these are the
// reproduction's headline checks in executable form.
func TestSuiteShapeClaims(t *testing.T) {
	s, err := NewSuite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byNP := map[[2]int]point{}
	for _, pt := range s.Points {
		byNP[[2]int{pt.N, pt.P}] = pt
	}
	// Latency: sparse at p=49 stays below dense at p=49 for both sizes,
	// and sparse latency does not grow with n.
	for _, n := range []int{64, 144} {
		pt := byNP[[2]int{n, 49}]
		if pt.Sparse.Critical.Latency >= pt.Dense2D.Critical.Latency {
			t.Errorf("n=%d: sparse latency %d ≥ 2dfw %d", n,
				pt.Sparse.Critical.Latency, pt.Dense2D.Critical.Latency)
		}
		if pt.Sparse.Critical.Latency >= pt.DenseDC.Critical.Latency {
			t.Errorf("n=%d: sparse latency %d ≥ dc %d", n,
				pt.Sparse.Critical.Latency, pt.DenseDC.Critical.Latency)
		}
	}
	if byNP[[2]int{64, 49}].Sparse.Critical.Latency != byNP[[2]int{144, 49}].Sparse.Critical.Latency {
		t.Error("sparse latency varies with n")
	}
}

func TestSeparatorCostTable(t *testing.T) {
	tb, err := SeparatorCost(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestCrossoverTable(t *testing.T) {
	tb, err := Crossover(smallConfig(), 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 workloads", len(tb.Rows))
	}
}

func TestCommBreakdownTable(t *testing.T) {
	// The run itself errors if the sparse wire sends more messages than
	// dense, or more words than dense plus a tag word per message, on
	// any family; the shape is two rows each.
	tb, err := CommBreakdown(smallConfig(), 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 6 workloads x 2 wires", len(tb.Rows))
	}
}

func TestOperationCountsTable(t *testing.T) {
	tb, err := OperationCounts(Config{GridSides: []int{10}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 heights", len(tb.Rows))
	}
}

func TestFigure1Table(t *testing.T) {
	tb, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 supernodes", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "o") {
		t.Error("missing adjacency pattern")
	}
}

func TestPerLevelTable(t *testing.T) {
	tb, err := PerLevel(smallConfig(), 12, 49)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 levels for p=49", len(tb.Rows))
	}
}

// Lemma 5.6 in executable form: every level's latency is O(log p) —
// within a small constant of log2(p), at every level.
func TestPerLevelLatencyIsLogP(t *testing.T) {
	tb, err := PerLevel(smallConfig(), 16, 225)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		// column 1 is L_l as a string; parse loosely
		var ll int
		if _, err := fmt.Sscanf(row[1], "%d", &ll); err != nil {
			t.Fatalf("bad L_l cell %q", row[1])
		}
		// log2(225) ≈ 7.8; allow constant ~4x for the multi-broadcast phases
		if ll > 32 {
			t.Errorf("level %s latency %d not O(log p)", row[0], ll)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b,c"}}
	tb.Add(1, `say "hi"`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,\"b,c\"\n1,\"say \"\"hi\"\"\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

// TestLoadBalanceTable: on a connected grid all p ranks do work in
// every algorithm as the paper states it — Algorithm 1 (the sparse
// solver's dense wire) included. The served wire computes each R3 sink
// block in one orientation, so its count is the plan's: the ranks that
// run a diagonal or unit op or consume a broadcast.
func TestLoadBalanceTable(t *testing.T) {
	cfg := smallConfig()
	const side, p = 12, 9
	tb, err := LoadBalance(cfg, side, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want Algorithm 1, the served wire and 2 baselines", len(tb.Rows))
	}
	served := strconv.Itoa(planActiveRanks(t, graph.Grid2D(side, side, graph.UnitWeights), p, cfg.Seed))
	for _, row := range tb.Rows {
		want := "9"
		if row[0] == "2d-sparse-apsp pruned" {
			want = served
		}
		if row[3] != want {
			t.Errorf("%s: active ranks = %s, want %s", row[0], row[3], want)
		}
	}
	if served == "9" {
		t.Error("the served plan leaves no rank idle: the R3 sink mirrors are handed panels")
	}
}

// planActiveRanks counts the ranks the default plan for g hands numeric
// work: the rank of a diagonal or unit op (the kinds with no group) and
// every consumer of a broadcast.
func planActiveRanks(t *testing.T, g *graph.Graph, p int, seed int64) int {
	t.Helper()
	h, err := apsp.HeightForP(p)
	if err != nil {
		t.Fatal(err)
	}
	ly, err := apsp.NewLayout(g, h, seed)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := apsp.BuildPlan(ly, p, apsp.WirePruned, apsp.R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	active := make(map[int]bool)
	for _, ops := range pl.Levels {
		for _, op := range ops {
			if len(op.Group) == 0 {
				active[op.Root] = true
			}
			for _, c := range op.Consumers {
				active[c] = true
			}
		}
	}
	return len(active)
}

func TestWeakScalingTable(t *testing.T) {
	tb, err := WeakScaling(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestStrongScalingTable(t *testing.T) {
	tb, err := StrongScaling(smallConfig(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}
