package apsp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparseapsp/internal/graph"
)

// pinnedPlanDigest is the SHA-256 of the sorted "cell hash" lines of
// every plan TestPlanHashesPinned builds. A change that moves a placement
// decision anywhere in the grid changes it: such a change re-pins it here
// beside the sweep table that shows what moved (EXPERIMENTS.md).
const pinnedPlanDigest = "a88a7a441642fd852a1fd670d61b50124b523f848c00e6ae3f0562781778ed91"

// TestPlanHashesPinned pins BuildPlan's every decision: over the sweep of
// E48 (placeFamilies × integer and real weights × p ∈ {9, 49, 225, 961} ×
// ND seeds {11, 42}) under both wires and both R4 strategies, the
// forEachShape grid and the two served shapes (grid 32², p = 49; cycle
// 800, p = 961; ND seed 42), 1,012 plans in all, one digest over every
// cell's Plan.Hash. A refactor of the placement pass must leave it as it
// is.
func TestPlanHashesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("1,012 plans built; run without -short")
	}
	var lines []string
	add := func(name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		lines = append(lines, name+" "+buildTestPlanAt(t, ly, p, wire, r4).Hash())
	}
	both := func(name string, ly *Layout, p int) {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				add(fmt.Sprintf("%s/%v/r4=%d", name, wire, r4), ly, p, wire, r4)
			}
		}
	}
	for _, f := range placeFamilies {
		for _, wt := range placeWeights {
			g := f.make(wt.w(rand.New(rand.NewSource(5))), rand.New(rand.NewSource(3)))
			for _, p := range []int{9, 49, 225, 961} {
				h, err := HeightForP(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range []int64{11, 42} {
					ly, err := NewLayout(g, h, seed)
					if err != nil {
						t.Fatal(err)
					}
					both(fmt.Sprintf("sweep/%s/%s/p=%d/seed=%d", f.name, wt.name, p, seed), ly, p)
				}
			}
		}
	}
	forEachShape(t, func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		add("shape/"+name, ly, p, wire, r4)
	})
	for _, s := range []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid32x32", graph.Grid2D(32, 32, graph.UnitWeights), 49},
		{"cycle800", graph.Cycle(800, graph.UnitWeights), 961},
	} {
		both(fmt.Sprintf("served/%s/p=%d", s.name, s.p), testLayout(t, s.g, s.p), s.p)
	}
	if len(lines) != 1012 {
		t.Fatalf("%d plans built, want 1,012", len(lines))
	}
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != pinnedPlanDigest {
		t.Errorf("the %d plans digest to %s, pinned %s: a placement decision moved", len(lines), got, pinnedPlanDigest)
	}
}
