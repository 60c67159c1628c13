package apsp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sparseapsp/internal/graph"
)

// planClock replays the placement pass's clocks over pl as it stands,
// choosing nothing, and returns the plan-time critical (messages,
// words): the component-wise maximum over the ranks' final clocks, like
// comm.Report.Critical.
func planClock(pl *Plan) tick {
	pc := newPlacer(pl)
	pc.forward(false, false)
	var crit tick
	for _, c := range pc.clock {
		crit = crit.max(c)
	}
	return crit
}

// TestPlanClockIsExact ties the clock the placement decides by to the
// clocks the executors charge: on every sparse row of the golden table
// and both benchmark shapes, the plan-time message count IS the critical
// latency either executor reports, and the plan-time word count bounds
// the critical bandwidth from above (the frozen demand rectangle is what
// pack may ship at most; the numeric trim only removes).
func TestPlanClockIsExact(t *testing.T) {
	cases := goldenCases()
	cases = append(cases,
		goldenCase{"grid32x32", graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49},
		goldenCase{"cycle800", graph.Cycle(800, integerWeights(rand.New(rand.NewSource(2)), 9)), 961},
	)
	for _, tc := range cases {
		h, err := HeightForP(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		ly, err := NewLayout(tc.g, h, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				pl, err := BuildPlan(ly, tc.p, wire, r4)
				if err != nil {
					t.Fatal(err)
				}
				clock := planClock(pl)
				flow, err := pl.ExecuteOpts(ly, ExecOpts{})
				if err != nil {
					t.Fatal(err)
				}
				mach, err := pl.executeMachine(ly)
				if err != nil {
					t.Fatal(err)
				}
				for exec, rep := range map[string]*DistResult{"dataflow": flow, "machine": mach} {
					crit := rep.Report.Critical
					if clock.msgs != crit.Latency {
						t.Errorf("%s/%v/r4=%d %s: plan-time messages %d, executor charged %d",
							tc.name, wire, r4, exec, clock.msgs, crit.Latency)
					}
					if clock.words < crit.Bandwidth {
						t.Errorf("%s/%v/r4=%d %s: plan-time words %d below the %d the executor charged",
							tc.name, wire, r4, exec, clock.words, crit.Bandwidth)
					}
					if wire == WireDense && clock.words != crit.Bandwidth {
						t.Errorf("%s/dense/r4=%d %s: plan-time words %d, executor charged %d — the dense wire has no trim to hide behind",
							tc.name, r4, exec, clock.words, crit.Bandwidth)
					}
				}
			}
		}
	}
}

// TestPlacementNeverRaisesCost holds the pass's guarantee structurally:
// over the whole shape grid the placed plan's plan-time messages and
// words are each at most the label-order plan's, and the pass touched
// nothing but each broadcast's member order and tree — the same member
// set, root at position 0, a tree (every parent an earlier position),
// consumers, kind, blocks and prune descriptor as planned, every other op
// identical.
func TestPlacementNeverRaisesCost(t *testing.T) {
	sorted := func(g []int) []int {
		s := append([]int(nil), g...)
		sort.Ints(s)
		return s
	}
	forEachShape(t, func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		label := labelOrderPlan(t, ly, p, wire, r4)
		placed, err := BuildPlan(ly, p, wire, r4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before, after := planClock(label), planClock(placed)
		if !after.within(before) {
			t.Errorf("%s: placement raised the plan-time cost: %+v → %+v", name, before, after)
		}
		for li := range label.Levels {
			was, now := label.Levels[li], placed.Levels[li]
			if len(was) != len(now) {
				t.Fatalf("%s: level %d: %d ops became %d", name, li+1, len(was), len(now))
			}
			for x := range was {
				a, b := was[x], now[x]
				if !isBcast(a.Kind) {
					if !reflect.DeepEqual(a, b) {
						t.Errorf("%s: level %d op %d: placement changed an op it only simulates", name, li+1, x)
					}
					continue
				}
				if b.Group[0] != b.Root {
					t.Errorf("%s: level %d op %d: root %d is not first in %v", name, li+1, x, b.Root, b.Group)
				}
				if !reflect.DeepEqual(sorted(a.Group), sorted(b.Group)) {
					t.Errorf("%s: level %d op %d: group %v is not a permutation of %v", name, li+1, x, b.Group, a.Group)
				}
				if len(b.Parent) != len(b.Group) || b.Parent[0] != -1 {
					t.Errorf("%s: level %d op %d: tree %v is not rooted at position 0 of %d members", name, li+1, x, b.Parent, len(b.Group))
				}
				for i := 1; i < len(b.Parent); i++ {
					if b.Parent[i] < 0 || int(b.Parent[i]) >= i {
						t.Errorf("%s: level %d op %d: position %d has parent %d", name, li+1, x, i, b.Parent[i])
					}
				}
				a.Group, b.Group, a.Parent, b.Parent = nil, nil, nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: level %d op %d: placement changed more than the tree:\n was %+v\n now %+v", name, li+1, x, a, b)
				}
			}
		}
	})
}

// TestPlacementDeterministic: the pass is a pure function of the
// schedule — two builds, one hash.
func TestPlacementDeterministic(t *testing.T) {
	forEachShape(t, func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		var hashes [2]string
		for i := range hashes {
			pl, err := BuildPlan(ly, p, wire, r4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			hashes[i] = pl.Hash()
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: two builds hashed %s and %s", name, hashes[0][:12], hashes[1][:12])
		}
	})
}
