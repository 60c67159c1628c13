package harness

import (
	"fmt"
	"strings"
	"testing"
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
	for _, tb := range []*Table{
		s.Table2Memory(), s.Table2Bandwidth(), s.Table2Latency(),
		s.ReductionFactors(), s.LowerBounds(),
	} {
		if len(tb.Rows) != 4 {
			t.Errorf("%s: %d rows, want 4", tb.ID, len(tb.Rows))
		}
		if tb.String() == "" {
			t.Errorf("%s renders empty", tb.ID)
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

func TestLoadBalanceTable(t *testing.T) {
	tb, err := LoadBalance(smallConfig(), 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 algorithms", len(tb.Rows))
	}
	// All p ranks do work in every algorithm on a connected grid.
	for _, row := range tb.Rows {
		if row[3] != "9" {
			t.Errorf("%s: active ranks = %s, want 9", row[0], row[3])
		}
	}
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
