package apsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
)

// planClock replays the placement pass's clocks over pl as it stands,
// choosing nothing, at msgWords' bound — the guide chooseTrees places by
// — and returns the plan-time critical (messages, words): the
// component-wise maximum over the ranks' final clocks, like
// comm.Report.Critical.
func planClock(pl *Plan) tick {
	return newPlacer(pl, nil).replay(0, nil, nil)
}

// rankClocks replays pl's clocks like planClock and returns every rank's.
func rankClocks(pl *Plan) []tick {
	pc := newPlacer(pl, nil)
	pc.replay(0, nil, nil)
	return pc.clock
}

// chainIsPath fails t unless chain is one path through the ranks, ending
// on rank end: each message continues from a rank the chain stands on —
// its sender, after which the chain stands on either end of the message,
// or its receiver, when the message extended the receiver's own clock.
func chainIsPath(t *testing.T, name string, chain []Segment, end int) {
	t.Helper()
	var on []int
	for x, s := range chain {
		switch {
		case x == 0 || slices.Contains(on, s.Src):
			on = []int{s.Src, s.Dst}
		case slices.Contains(on, s.Dst):
			on = []int{s.Dst}
		default:
			t.Errorf("%s: chain link %d (%d → %d) does not continue from ranks %v", name, x, s.Src, s.Dst, on)
			return
		}
	}
	if len(chain) > 0 && !slices.Contains(on, end) {
		t.Errorf("%s: the chain ends on ranks %v, not on the critical rank %d", name, on, end)
	}
}

// critRank is the first rank at which of, a component of the final
// clocks, reaches its maximum.
func critRank(perRank []comm.Cost, of func(comm.Cost) int64) int {
	end := 0
	for r, c := range perRank {
		if of(c) > of(perRank[end]) {
			end = r
		}
	}
	return end
}

// TestCriticalChainMatchesClock: on the golden cases and both served
// shapes, under both wires and both R4 strategies, Plan.Cost's words
// chain sums to its critical words and its messages chain has one link
// per critical message, and each chain is one path ending on the rank
// whose clock reads that component's critical value (chainIsPath).
func TestCriticalChainMatchesClock(t *testing.T) {
	cases := append(goldenCases(),
		goldenCase{"grid32x32", graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49},
		goldenCase{"cycle800", graph.Cycle(800, integerWeights(rand.New(rand.NewSource(2)), 9)), 961},
	)
	for _, tc := range cases {
		ly := testLayout(t, tc.g, tc.p)
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				name := fmt.Sprintf("%s/%v/r4=%d", tc.name, wire, r4)
				cost := planCost(t, buildTestPlanAt(t, ly, tc.p, wire, r4), ly)
				var words int64
				for _, s := range cost.WordsChain {
					words += s.Words
				}
				if words != cost.Critical.Bandwidth {
					t.Errorf("%s: the words chain's %d links sum to %d words, the clock reads %d", name, len(cost.WordsChain), words, cost.Critical.Bandwidth)
				}
				if n := int64(len(cost.MessagesChain)); n != cost.Critical.Latency {
					t.Errorf("%s: the messages chain has %d links, the clock reads %d messages", name, n, cost.Critical.Latency)
				}
				chainIsPath(t, name+" words", cost.WordsChain, critRank(cost.PerRank, func(c comm.Cost) int64 { return c.Bandwidth }))
				chainIsPath(t, name+" messages", cost.MessagesChain, critRank(cost.PerRank, func(c comm.Cost) int64 { return c.Latency }))
			}
		}
	}
}

// TestPlanCostServedGridChain pins E52's chain on the served grid (32²,
// p = 49, ND seed 42), pruned wire, mapped R4: the words chain sums to
// the 46,549 critical words and ends in the root level's three R3 sends
// of the 8,193-word A(1,7) from rank 6 to ranks 3, 1 and 0 — 24,579 words.
func TestPlanCostServedGridChain(t *testing.T) {
	ly := testLayout(t, graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49)
	chain := planCost(t, buildTestPlanAt(t, ly, 49, WirePruned, R4Mapped), ly).WordsChain
	var words int64
	for _, s := range chain {
		words += s.Words
	}
	if words != 46549 || len(chain) < 3 {
		t.Fatalf("the words chain has %d links summing to %d words, want 46,549", len(chain), words)
	}
	for x, dst := range []int{3, 1, 0} {
		want := Segment{Level: 3, BI: 1, BJ: 7, Src: 6, Dst: dst, Class: comm.SendR3, Words: 8193}
		if got := chain[len(chain)-3+x]; got != want {
			t.Errorf("tail link %d is %+v, want %+v", x, got, want)
		}
	}
}

// TestPlanCostOnce: Plan.Cost is computed once, by whichever of several
// concurrent first calls gets there, and every call returns that result
// (TestExecuteRejectsOtherDissection holds its layout check).
func TestPlanCostOnce(t *testing.T) {
	g := graph.Grid2D(12, 12, integerWeights(rand.New(rand.NewSource(1)), 9))
	planned := testLayout(t, g, 49)
	pl := buildTestPlanAt(t, planned, 49, WirePruned, R4Mapped)
	costs := make([]*PlanCost, 4)
	var wg sync.WaitGroup
	for i := range costs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if costs[i], err = pl.Cost(pl.LayoutFor(g)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, c := range append(costs, planCost(t, pl, planned)) {
		if c == nil || c != costs[0] {
			t.Fatalf("call %d returned %p, the first %p", i, c, costs[0])
		}
	}
}

// TestCostPricesTheBuildSweep: a pruned-wire plan keeps its build's
// demand sweep for Cost, keyed across the placement's drops (workKey,
// placeTrees), and the price from it is, field for field, the price of a
// fresh sweep over the plan as built — on every shape and the served
// ones. Pricing lets go of the kept sweep.
func TestCostPricesTheBuildSweep(t *testing.T) {
	forEachShapePlan(t, func(t *testing.T, name string, ly *Layout, pl *Plan) {
		if pl.Wire == WirePruned && pl.masks == nil {
			t.Fatalf("%s: the built plan kept no sweep", name)
		}
		kept := pl.exactCost(ly)
		if pl.masks != nil || pl.work != nil {
			t.Fatalf("%s: pricing kept the sweep on the plan", name)
		}
		if fresh := pl.exactCost(ly); !reflect.DeepEqual(kept, fresh) {
			t.Errorf("%s: the price from the build's sweep differs from a fresh sweep's", name)
		}
	})
}

// TestExecuteCopiesThePrice: an execute reports its plan's price
// (Plan.Cost), and the report and phases it hands out are its caller's to
// change — the price cached on the plan and every later execute's report
// stay as they were.
func TestExecuteCopiesThePrice(t *testing.T) {
	g := graph.Grid2D(12, 12, integerWeights(rand.New(rand.NewSource(1)), 9))
	ly := testLayout(t, g, 49)
	pl := buildTestPlanAt(t, ly, 49, WirePruned, R4Mapped)
	cost := planCost(t, pl, ly)
	want := func() (comm.Report, []comm.PhaseCost) {
		rep := cost.Report
		rep.PerRank, rep.PeakWords = slices.Clone(rep.PerRank), slices.Clone(rep.PeakWords)
		rep.LocalFlops, rep.LocalSent = slices.Clone(rep.LocalFlops), slices.Clone(rep.LocalSent)
		return rep, slices.Clone(cost.Phases)
	}
	wantRep, wantPhases := want()
	for run := 0; run < 2; run++ {
		res, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Report, wantRep) || !reflect.DeepEqual(res.Phases, wantPhases) {
			t.Fatalf("run %d: the execute's report or phases are not its plan's price", run)
		}
		res.Report.PerRank[0].Flops++
		res.Report.PeakWords[0]++
		res.Report.LocalFlops[0]++
		res.Report.LocalSent[0]++
		res.Phases[0].Critical.Flops++
	}
	if rep, phases := want(); !reflect.DeepEqual(rep, wantRep) || !reflect.DeepEqual(phases, wantPhases) {
		t.Error("changing an execute's report changed the price cached on the plan")
	}
}

// costIsReport fails t unless Plan.Cost is what the machine reference
// (executeMachine) charged in mach — its whole Report and its phase
// costs — naming the first rank whose clock, sent words, peak memory or
// own flops differ, and unless its messages are what the machine counts:
// TotalMessages of them, whose words sum to TotalWords, to LocalSent per
// sender and to WordsByClass per class.
func costIsReport(t *testing.T, name string, cost *PlanCost, mach *DistResult) {
	t.Helper()
	want := mach.Report
	sent := comm.Report{TotalMessages: int64(len(cost.Messages)), LocalSent: make([]int64, len(want.LocalSent))}
	for _, m := range cost.Messages {
		sent.TotalWords += m.Words
		sent.LocalSent[m.Src] += m.Words
		sent.WordsByClass[m.Class] += m.Words
	}
	if sent.TotalMessages != want.TotalMessages || sent.TotalWords != want.TotalWords ||
		!slices.Equal(sent.LocalSent, want.LocalSent) || sent.WordsByClass != want.WordsByClass {
		t.Errorf("%s: Plan.Cost's %d messages sum to %d words, %v by class; the machine sent %d messages of %d words, %v by class",
			name, sent.TotalMessages, sent.TotalWords, sent.WordsByClass, want.TotalMessages, want.TotalWords, want.WordsByClass)
	}
	if !reflect.DeepEqual(cost.Phases, mach.Phases) {
		t.Errorf("%s: Plan.Cost's phases %+v, the machine's %+v", name, cost.Phases, mach.Phases)
	}
	if reflect.DeepEqual(cost.Report, want) {
		return
	}
	t.Errorf("%s: Plan.Cost reads %v by class %v, the machine charged %v by class %v",
		name, cost.Report, cost.WordsByClass, want, want.WordsByClass)
	for r := range want.PerRank {
		if cost.PerRank[r] != want.PerRank[r] || cost.LocalSent[r] != want.LocalSent[r] ||
			cost.PeakWords[r] != want.PeakWords[r] || cost.LocalFlops[r] != want.LocalFlops[r] {
			t.Errorf("%s: rank %d: Plan.Cost %+v sent %d peak %d flops %d, executed %+v sent %d peak %d flops %d", name, r,
				cost.PerRank[r], cost.LocalSent[r], cost.PeakWords[r], cost.LocalFlops[r],
				want.PerRank[r], want.LocalSent[r], want.PeakWords[r], want.LocalFlops[r])
			return
		}
	}
}

// TestPlanClockIsExact ties the plan's price to what the machine
// reference charges: on every sparse row of the golden table, both
// benchmark shapes, the grid on real-valued weights and two disconnected
// cliques (masks with empty rows), under both wires and both R4
// strategies, Plan.Cost is the executed Report field for field — the
// critical messages, words and flops, every rank's final clock, sent
// words, peak memory and own flops, the totals, the words per send class
// and the largest peak — and the per-level phase costs; on the pruned
// wire too, where every message is priced from the payload's mask as
// pack ships it (packPrice) and every kernel operand from the mask inside
// what its rank decoded.
func TestPlanClockIsExact(t *testing.T) {
	cases := goldenCases()
	cases = append(cases,
		goldenCase{"grid32x32", graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49},
		goldenCase{"cycle800", graph.Cycle(800, integerWeights(rand.New(rand.NewSource(2)), 9)), 961},
		goldenCase{"grid32x32-real", graph.Grid2D(32, 32, graph.RandomWeights(rand.New(rand.NewSource(3)), 0.5, 9.5)), 49},
		goldenCase{"two-cliques", disconnectedCliques(20), 9},
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
				mach, err := pl.executeMachine(ly)
				if err != nil {
					t.Fatal(err)
				}
				costIsReport(t, fmt.Sprintf("%s/%v/r4=%d", tc.name, wire, r4), planCost(t, pl, ly), mach)
			}
		}
	}
}

// TestPlacementNeverRaisesCost holds the tree choice's guarantee
// structurally: over the whole shape grid the placed plan's plan-time
// messages are at most the label-order plan's, and its plan-time words
// at per-edge payloads at most the label-order plan's at whole-group
// payloads — the bound its first rounds are scored at, which no edge's
// subtree demand exceeds. chooseTrees touched nothing but each
// broadcast's member order, tree and per-position descriptors — the same
// member set, root at position 0, a tree (every parent an earlier
// position), consumers, kind, blocks and whole-group descriptor as
// planned, no edge weighing more than the whole group's, every other op
// identical. The members dropMirrors removes afterwards are
// TestMirrorDropNeverLengthensAClock's.
func TestPlacementNeverRaisesCost(t *testing.T) {
	sorted := func(g []int) []int {
		s := append([]int(nil), g...)
		sort.Ints(s)
		return s
	}
	forEachShape(t, func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		label := labelOrderPlan(t, ly, p, wire, r4)
		placed := chosenTreesPlan(t, ly, p, wire, r4)
		before, after := planClock(label), planClock(placed)
		if !after.within(before) {
			t.Errorf("%s: placement raised the plan-time cost: %+v → %+v", name, before, after)
		}
		if whole := planClock(wholeGroupPayloads(t, placed)); !after.within(whole) {
			t.Errorf("%s: per-edge payloads cost %+v, whole-group %+v", name, after, whole)
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
					if edge, whole := placed.msgWords(&b, i), placed.msgWords(&b, 0); edge > whole {
						t.Errorf("%s: level %d op %d: the edge into position %d weighs %d words, the whole group %d", name, li+1, x, i, edge, whole)
					}
				}
				if !reflect.DeepEqual(a.prune(0), b.prune(0)) {
					t.Errorf("%s: level %d op %d: whole-group descriptor %+v became %+v", name, li+1, x, a.prune(0), b.prune(0))
				}
				a.Group, b.Group, a.Parent, b.Parent, a.Prune, b.Prune = nil, nil, nil, nil, nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: level %d op %d: placement changed more than the tree:\n was %+v\n now %+v", name, li+1, x, a, b)
				}
			}
		}
	})
}

// wholeGroupPayloads returns a copy of pl whose broadcast messages all
// carry the whole group's demand (every Prune[i] = Prune[0]), as every
// plan before per-edge descriptors did: the same trees and messages.
func wholeGroupPayloads(t *testing.T, pl *Plan) *Plan {
	t.Helper()
	cp, err := DecodePlan(pl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range cp.Levels {
		for x := range ops {
			if op := &ops[x]; isBcast(op.Kind) {
				for i := range op.Prune {
					op.Prune[i] = op.Prune[0]
				}
			}
		}
	}
	return cp
}

// TestPerEdgePayloadsNeverRaiseCost executes every golden case and both
// benchmark shapes on the pruned wire twice — as built, and with every
// broadcast edge carrying the whole group's payload — and requires the
// same distances to the bit, the same messages (critical and total), the
// same peak memory, and no more words, critical or total: a relay ships
// each child what its subtree folds, re-packed from what it decoded, and
// that is never more than it received.
func TestPerEdgePayloadsNeverRaiseCost(t *testing.T) {
	cases := append(goldenCases(),
		goldenCase{"grid32x32", graph.Grid2D(32, 32, integerWeights(rand.New(rand.NewSource(1)), 9)), 49},
		goldenCase{"cycle800", graph.Cycle(800, integerWeights(rand.New(rand.NewSource(2)), 9)), 961},
	)
	for _, tc := range cases {
		ly := testLayout(t, tc.g, tc.p)
		for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
			name := fmt.Sprintf("%s/r4=%d", tc.name, r4)
			pl, err := BuildPlan(ly, tc.p, WirePruned, r4)
			if err != nil {
				t.Fatal(err)
			}
			edge, err := pl.ExecuteOpts(ly, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			whole, err := wholeGroupPayloads(t, pl).ExecuteOpts(ly, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			e, w := edge.Report, whole.Report
			if distHash(edge.Dist) != distHash(whole.Dist) {
				t.Errorf("%s: distances differ from the whole-group replay", name)
			}
			if e.Critical.Latency != w.Critical.Latency || e.TotalMessages != w.TotalMessages || e.MaxMemory != w.MaxMemory {
				t.Errorf("%s: messages %d / %d and memory %d, whole-group %d / %d and %d",
					name, e.Critical.Latency, e.TotalMessages, e.MaxMemory, w.Critical.Latency, w.TotalMessages, w.MaxMemory)
			}
			if e.Critical.Bandwidth > w.Critical.Bandwidth || e.TotalWords > w.TotalWords {
				t.Errorf("%s: words %d critical / %d total, whole-group %d / %d",
					name, e.Critical.Bandwidth, e.TotalWords, w.Critical.Bandwidth, w.TotalWords)
			}
		}
	}
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

// TestMsgWordsNeverRisesWhenNarrowed: the guide prices a message at most
// at the dense body, pack's classic fallback, so narrowing a descriptor
// never raises its price — which dropMirrors' argument takes for granted,
// since deleting a member narrows the descriptors above it. Exhaustively
// over small payloads packWords does not rise as the kept rectangle
// shrinks or leaves the full descriptor, and on every broadcast edge of
// the caterpillar at p = 225 (where a dropped member once doubled an
// edge's price) narrowing the edge's descriptor by one index does not
// raise msgWords.
func TestMsgWordsNeverRisesWhenNarrowed(t *testing.T) {
	for rows := 1; rows <= 12; rows++ {
		for cols := 1; cols <= 12; cols++ {
			full := packWords(rows, cols, rows, cols, true)
			for nr := 0; nr <= rows; nr++ {
				for nc := 0; nc <= cols; nc++ {
					w := packWords(rows, cols, nr, nc, false)
					if w > full || nr > 0 && packWords(rows, cols, nr-1, nc, false) > w ||
						nc > 0 && packWords(rows, cols, nr, nc-1, false) > w {
						t.Fatalf("%d×%d payload: keeping %d×%d prices %d words, above a wider descriptor's", rows, cols, nr, nc, w)
					}
				}
			}
		}
	}
	pl := buildTestPlan(t, graph.Caterpillar(60, 2, graph.UnitWeights), 225, WirePruned, R4Mapped)
	edges := 0
	for _, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			if !isBcast(op.Kind) {
				continue
			}
			rows, cols := pl.ND.Sizes[op.BI], pl.ND.Sizes[op.BJ]
			for part := 1; part < len(op.Group); part++ {
				spec := op.Prune[part]
				narrow := narrowByOne(spec, rows, cols)
				if narrow == nil {
					continue
				}
				before := pl.msgWords(op, part)
				op.Prune[part] = narrow
				after := pl.msgWords(op, part)
				op.Prune[part] = spec
				if after > before {
					t.Errorf("%s (%d,%d) edge into %d: one index fewer prices %d words, %d before",
						dfKindNames[op.Kind], op.BI, op.BJ, op.Group[part], after, before)
				}
				edges++
			}
		}
	}
	if edges == 0 {
		t.Error("no broadcast edge could be narrowed: the test checks nothing")
	}
}

// narrowByOne returns spec (over a rows×cols payload) keeping one row or
// column fewer, or nil when it keeps nothing.
func narrowByOne(spec *PruneSpec, rows, cols int) *PruneSpec {
	all := func(n int) []int32 {
		list := make([]int32, n)
		for x := range list {
			list[x] = int32(x)
		}
		return list
	}
	out := &PruneSpec{Rows: all(rows), Cols: all(cols)}
	if spec != nil {
		out.ZeroDiag = spec.ZeroDiag
		if spec.Rows != nil {
			out.Rows = spec.Rows
		}
		if spec.Cols != nil {
			out.Cols = spec.Cols
		}
	}
	switch {
	case len(out.Rows) == 0 || len(out.Cols) == 0:
		return nil
	case len(out.Rows) > 1:
		out.Rows = out.Rows[:len(out.Rows)-1]
	default:
		out.Cols = out.Cols[:len(out.Cols)-1]
	}
	return out
}

// TestMirrorDropNeverLengthensAClock holds dropMirrors to its argument:
// over the sweep families of E41 at test sizes and two disconnected
// cliques, p ∈ {9, 49, 225} and both wires, every rank's plan-time clock
// right after the pass (droppedMirrorsPlan, before the descent) is no
// later in either component, at the guide's prices, than over the chosen
// trees before it, and the plan solves to the same distances, bit for
// bit, on integer and on real-valued weights — the mirrored panel is the
// one the rank no longer receives. The pass touches nothing but R4
// row-panel and R3 column broadcasts (sameBesideMirrors).
func TestMirrorDropNeverLengthensAClock(t *testing.T) {
	earlier := 0 // ranks whose clock the pass moved
	for _, f := range placeFamilies {
		for _, wt := range placeWeights {
			g := f.make(wt.w(rand.New(rand.NewSource(5))), rand.New(rand.NewSource(3)))
			for _, p := range []int{9, 49, 225} {
				ly := testLayout(t, g, p)
				for _, wire := range []WireFormat{WirePruned, WireDense} {
					name := fmt.Sprintf("%s/%s/p=%d/%v", f.name, wt.name, p, wire)
					before := chosenTreesPlan(t, ly, p, wire, R4Mapped)
					after := droppedMirrorsPlan(t, ly, p, wire, R4Mapped)
					sameBesideMirrors(t, name, before, after)
					was := rankClocks(before)
					for r, c := range rankClocks(after) {
						if !c.within(was[r]) {
							t.Errorf("%s: rank %d's clock went %+v → %+v", name, r, was[r], c)
						}
						if c != was[r] {
							earlier++
						}
					}
					var hashes [2]string
					for i, pl := range []*Plan{before, after} {
						res, err := pl.ExecuteOpts(ly, ExecOpts{})
						if err != nil {
							t.Fatal(err)
						}
						hashes[i] = distHash(res.Dist)
					}
					if hashes[0] != hashes[1] {
						t.Errorf("%s: distances differ from the plan before the drop", name)
					}
				}
			}
		}
	}
	if earlier == 0 {
		t.Error("the pass moved no rank's clock: the test checks nothing")
	}
	t.Logf("%d rank clocks moved earlier", earlier)
}

// placeFamilies are the sweep families of E41 at test sizes and two
// disconnected cliques; placeWeights draws integer or real weights.
var (
	placeFamilies = []struct {
		name string
		make func(w graph.WeightFn, rng *rand.Rand) *graph.Graph
	}{
		{"caterpillar", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Caterpillar(60, 2, w) }},
		{"complete", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Complete(24, w) }},
		{"cycle", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Cycle(200, w) }},
		{"gnp-avg4", func(w graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RandomGNP(150, 4.0/150, w, rng) }},
		{"gnp-dense", func(w graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RandomGNP(60, 0.3, w, rng) }},
		{"grid12", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Grid2D(12, 12, w) }},
		{"grid16", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Grid2D(16, 16, w) }},
		{"grid3d", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Grid3D(5, 5, 5, w) }},
		{"path", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Path(200, w) }},
		{"rgg", func(_ graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RandomGeometric(150, 0.15, rng) }},
		{"rmat", func(w graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RMAT(7, 8, w, rng) }},
		{"star", func(w graph.WeightFn, _ *rand.Rand) *graph.Graph { return graph.Star(100, w) }},
		{"tree", func(w graph.WeightFn, rng *rand.Rand) *graph.Graph { return graph.RandomTree(200, w, rng) }},
		// Empty separators: R2 pivots no one folds, whose groups stay whole.
		{"two-cliques", func(graph.WeightFn, *rand.Rand) *graph.Graph { return disconnectedCliques(20) }},
	}
	placeWeights = []struct {
		name string
		w    func(rng *rand.Rand) graph.WeightFn
	}{
		{"int", func(rng *rand.Rand) graph.WeightFn { return integerWeights(rng, 9) }},
		{"real", func(rng *rand.Rand) graph.WeightFn { return graph.RandomWeights(rng, 0.5, 9.5) }},
	}
)

// TestExactDescentNeverRaisesCost holds descend to its argument: it
// starts from the plan dropMirrors leaves and replays the clock the
// executors charge, so over the families of TestMirrorDropNeverLengthensAClock,
// p ∈ {9, 49, 225} and both R4 strategies the built plan's executed
// critical words and messages are each no higher than the plan's before
// the descent, and it solves to the same distances, bit for bit, on
// integer and on real-valued weights. Only the critical path is
// promised: a rank off it may finish later in either component. The
// dense wire is not descended: its plan is the one before, byte for byte.
func TestExactDescentNeverRaisesCost(t *testing.T) {
	lower := 0 // cells whose critical path the descent shortened
	for _, f := range placeFamilies {
		for _, wt := range placeWeights {
			g := f.make(wt.w(rand.New(rand.NewSource(5))), rand.New(rand.NewSource(3)))
			for _, p := range []int{9, 49, 225} {
				ly := testLayout(t, g, p)
				for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
					name := fmt.Sprintf("%s/%s/p=%d/r4=%d", f.name, wt.name, p, r4)
					if dense := droppedMirrorsPlan(t, ly, p, WireDense, r4); dense.Hash() != buildTestPlanAt(t, ly, p, WireDense, r4).Hash() {
						t.Errorf("%s: the descent moved the dense wire's plan", name)
					}
					before := droppedMirrorsPlan(t, ly, p, WirePruned, r4)
					after := buildTestPlanAt(t, ly, p, WirePruned, r4)
					var reps [2]*DistResult
					for i, pl := range []*Plan{before, after} {
						res, err := pl.ExecuteOpts(ly, ExecOpts{})
						if err != nil {
							t.Fatal(err)
						}
						reps[i] = res
					}
					was, now := reps[0].Report.Critical, reps[1].Report.Critical
					if now.Bandwidth > was.Bandwidth || now.Latency > was.Latency {
						t.Errorf("%s: the descent raised the critical path: %d words / %d messages → %d / %d",
							name, was.Bandwidth, was.Latency, now.Bandwidth, now.Latency)
					}
					if now != was {
						lower++
					}
					if distHash(reps[0].Dist) != distHash(reps[1].Dist) {
						t.Errorf("%s: distances differ from the plan before the descent", name)
					}
				}
			}
		}
	}
	if lower == 0 {
		t.Error("the descent shortened no critical path: the test checks nothing")
	}
	t.Logf("%d critical paths shortened", lower)
}

// TestDeadDropNeverLengthensAClock holds dropDead to its argument over
// the sweep — the families of TestMirrorDropNeverLengthensAClock on
// integer and real weights, p ∈ {9, 49, 225, 961}, ND seeds 11 and 42 and
// both R4 strategies: every rank's exact clock in the built plan is no
// later in either component than in the plan the descent left
// (descendedPlan), the two solve to the same distances bit for bit, and
// the built plan decodes. No unit or reduce is left into a 1×1 diagonal
// block, and a pivot member that neither folds nor relays is left only in
// a pivot broadcast planned with no consumer (deadWorkLeft).
func TestDeadDropNeverLengthensAClock(t *testing.T) {
	if testing.Short() {
		t.Skip("448 plans built twice and executed; run without -short")
	}
	shorter := 0 // cells whose schedule the pass shortened
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
					for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
						name := fmt.Sprintf("%s/%s/p=%d/seed=%d/r4=%d", f.name, wt.name, p, seed, r4)
						before := descendedPlan(t, ly, p, WirePruned, r4)
						after := buildTestPlanAt(t, ly, p, WirePruned, r4)
						roundTrips(t, name, after)
						deadWorkLeft(t, name, after)
						was, now := planCost(t, before, ly), planCost(t, after, ly)
						for r, c := range now.PerRank {
							if c.Latency > was.PerRank[r].Latency || c.Bandwidth > was.PerRank[r].Bandwidth {
								t.Errorf("%s: rank %d's exact clock went %+v → %+v", name, r, was.PerRank[r], c)
							}
						}
						if planMessages(after) < planMessages(before) {
							shorter++
						}
						var hashes [2]string
						for i, pl := range []*Plan{before, after} {
							res, err := pl.ExecuteOpts(ly, ExecOpts{})
							if err != nil {
								t.Fatal(err)
							}
							hashes[i] = distHash(res.Dist)
						}
						if hashes[0] != hashes[1] {
							t.Errorf("%s: distances differ from the plan before the drop", name)
						}
					}
				}
			}
		}
	}
	if shorter == 0 {
		t.Error("the pass dropped no message: the test checks nothing")
	}
	t.Logf("%d schedules shortened", shorter)
}

// deadWorkLeft fails t if pl plans a unit or a reduce into a 1×1 diagonal
// block, or lists a pivot member that neither folds nor relays in a pivot
// broadcast some member folds.
func deadWorkLeft(t *testing.T, name string, pl *Plan) {
	t.Helper()
	for li, ops := range pl.Levels {
		for _, op := range ops {
			switch op.Kind {
			case opUnit, opReduce:
				if op.BI == op.BJ && pl.ND.Sizes[op.BI] == 1 {
					t.Errorf("%s: level %d plans a %s into the 1×1 diagonal block %d", name, li+1, dfKindNames[op.Kind], op.BI)
				}
			case opR2Left, opR2Right:
				if len(op.Consumers) == 0 {
					continue
				}
				relays := op.relays()
				for p, r := range op.Group {
					if p > 0 && !relays[p] && !op.holdsMirror(p) && !contains(op.Consumers, r) {
						t.Errorf("%s: level %d %s pivot %d lists rank %d, which neither folds nor relays", name, li+1, dfKindNames[op.Kind], op.BI, r)
					}
				}
			}
		}
	}
}

// roundTrips fails t unless pl's encoding decodes to a plan with its hash:
// the decoder's validator accepts every plan BuildPlan returns.
func roundTrips(t *testing.T, name string, pl *Plan) {
	t.Helper()
	dec, err := DecodePlan(pl.Encode())
	if err != nil {
		t.Errorf("%s: the built plan does not decode: %v", name, err)
	} else if dec.Hash() != pl.Hash() {
		t.Errorf("%s: the decoded plan hashes %s, the built one %s", name, dec.Hash()[:12], pl.Hash()[:12])
	}
}

// buildTestPlanAt is BuildPlan over ly, failing t on error.
func buildTestPlanAt(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	pl, err := BuildPlan(ly, p, wire, r4)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// planCost is pl.Cost(ly), failing t on an error.
func planCost(t testing.TB, pl *Plan, ly *Layout) *PlanCost {
	t.Helper()
	cost, err := pl.Cost(ly)
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// TestMirrorDropRekeysDemands: dropMirrors deletes ops, which moves every
// later op of their level down a slot, so the sweep's records the placer
// holds must follow the ops to their new addresses (drop). After the drop
// every surviving broadcast's record holds one demand per Group member —
// what the sweep computed for that member, nothing for a member outside
// Consumers — and a mask of its block's shape, and every sending op has
// one.
func TestMirrorDropRekeysDemands(t *testing.T) {
	type opKey struct {
		level           int
		kind            uint8
		bi, bj, k, root int
	}
	moved := 0 // cells where a dropped op moved a later broadcast
	forEachShape(t, func(t *testing.T, name string, ly *Layout, p int, wire WireFormat, r4 R4Strategy) {
		if wire == WireDense {
			return
		}
		pl, sends, err := buildLabelOrder(ly, p, wire, r4)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[opKey]map[int][]uint64)
		for li, ops := range pl.Levels {
			for x := range ops {
				op := &ops[x]
				if !isBcast(op.Kind) {
					continue
				}
				key := opKey{li, op.Kind, op.BI, op.BJ, op.K, op.Root}
				if want[key] != nil {
					t.Fatalf("%s: two broadcasts share the key %+v", name, key)
				}
				want[key] = make(map[int][]uint64)
				for m, r := range op.Group {
					want[key][r] = slices.Clone(sends[op].need.member[m])
				}
			}
		}
		pc := newPlacer(pl, sends)
		pc.chooseTrees()
		keys := make([][]opKey, len(pl.Levels))
		for li, ops := range pl.Levels {
			for _, op := range ops {
				keys[li] = append(keys[li], opKey{li, op.Kind, op.BI, op.BJ, op.K, op.Root})
			}
		}
		pc.dropMirrors()
		sends = pc.sends
		senders := 0
		for li, ops := range pl.Levels {
			first := len(ops) // the slot of the first op the drop moved
			for x, op := range ops {
				if op.Kind != keys[li][x].kind || op.BI != keys[li][x].bi || op.BJ != keys[li][x].bj || op.Root != keys[li][x].root {
					first = x
					break
				}
			}
			shifted := false
			for x := range ops {
				op := &ops[x]
				if op.Kind == opDiag || op.Kind == opUnit || op.Kind == opReduce {
					continue
				}
				senders++
				sd := sends[op]
				if sd == nil {
					t.Fatalf("%s: level %d op %d (%s) has no record after the drop", name, li+1, x, dfKindNames[op.Kind])
				}
				if bi, bj := op.payload(0); sd.mask[0].rows != ly.ND.Sizes[bi] || sd.mask[0].cols != ly.ND.Sizes[bj] {
					t.Errorf("%s: level %d op %d: a %d×%d mask for block (%d,%d)", name, li+1, x, sd.mask[0].rows, sd.mask[0].cols, bi, bj)
				}
				if !isBcast(op.Kind) {
					continue
				}
				w := want[opKey{li, op.Kind, op.BI, op.BJ, op.K, op.Root}]
				if sd.need == nil || len(sd.need.member) != len(op.Group) {
					t.Fatalf("%s: level %d op %d: %d members, a demand record for %d", name, li+1, x, len(op.Group), len(sd.need.member))
				}
				for m, r := range op.Group {
					if !slices.Equal(sd.need.member[m], w[r]) {
						t.Errorf("%s: level %d op %d: member %d's demand is another's", name, li+1, x, r)
					}
					if !slices.Contains(op.Consumers, r) && slices.ContainsFunc(sd.need.member[m], func(b uint64) bool { return b != 0 }) {
						t.Errorf("%s: level %d op %d: member %d demands without consuming", name, li+1, x, r)
					}
				}
				shifted = shifted || x >= first
			}
			if shifted {
				moved++
			}
		}
		if senders != len(sends) {
			t.Errorf("%s: %d sending ops, %d records", name, senders, len(sends))
		}
	})
	if moved == 0 {
		t.Error("no drop moved a broadcast: the test checks nothing")
	}
}

// sameBesideMirrors requires after to be before with only R4 row-panel
// and R3 column broadcasts changed: each kept one over the same block and
// root, its members and consumers a subset of what they were, the rest
// gone; every other op identical and in place.
func sameBesideMirrors(t *testing.T, name string, before, after *Plan) {
	t.Helper()
	subset := func(a, b []int) bool {
		for _, x := range a {
			if !slices.Contains(b, x) {
				return false
			}
		}
		return true
	}
	for li := range before.Levels {
		was, now := before.Levels[li], after.Levels[li]
		j := 0
		for _, a := range was {
			mirror := a.Kind == opR4Akj || a.Kind == opR3Col
			if j < len(now) && now[j].Kind == a.Kind && now[j].BI == a.BI && now[j].BJ == a.BJ && now[j].K == a.K && now[j].Root == a.Root {
				b := now[j]
				j++
				if mirror && subset(b.Group, a.Group) && subset(b.Consumers, a.Consumers) || reflect.DeepEqual(a, b) {
					continue
				}
				t.Errorf("%s: level %d: the pass changed a %s op over (%d,%d)", name, li+1, dfKindNames[a.Kind], a.BI, a.BJ)
			} else if !mirror {
				t.Fatalf("%s: level %d: the pass removed a %s op over (%d,%d)", name, li+1, dfKindNames[a.Kind], a.BI, a.BJ)
			}
		}
		if j != len(now) {
			t.Fatalf("%s: level %d: the pass added ops", name, li+1)
		}
	}
}

// TestDropUndoesALaterClock holds drop's guard to its word: a drop that
// chains every broadcast of four or more members — the last member then
// receives later — and deletes each level's last broadcast is put back
// as it was: every level byte for byte, every demand list, the sweep's
// records keyed by the ops' addresses again and the steps listed over
// them.
func TestDropUndoesALaterClock(t *testing.T) {
	ly := testLayout(t, graph.Grid2D(12, 12, graph.UnitWeights), 49)
	pl, sends, err := buildLabelOrder(ly, 49, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPlacer(pl, sends)
	pc.chooseTrees()
	body := pl.appendBody(nil)
	type record struct {
		sd     *sendDemand
		member [][]uint64
	}
	was := make(map[[2]int]record)
	for li, ops := range pl.Levels {
		for x := range ops {
			if sd := pc.sends[&ops[x]]; sd != nil {
				rec := record{sd: sd}
				if sd.need != nil {
					rec.member = slices.Clone(sd.need.member)
				}
				was[[2]int{li, x}] = rec
			}
		}
	}
	chained, deleted := 0, 0
	pc.drop(func(ops []Op) func(*Op, *sendDemand) bool {
		last := -1
		for x := range ops {
			if isBcast(ops[x].Kind) {
				last = x
			}
		}
		return func(op *Op, sd *sendDemand) bool {
			if isBcast(op.Kind) && len(op.Group) >= 4 {
				op.Parent = make([]int32, len(op.Group))
				for p := range op.Parent {
					op.Parent[p] = int32(p - 1)
				}
				sd.need.member = slices.Clone(sd.need.member)
				slices.Reverse(sd.need.member)
				chained++
			}
			if last >= 0 && &ops[last] == op {
				deleted++
				return false
			}
			return true
		}
	})
	if chained == 0 || deleted == 0 {
		t.Fatalf("the drop chained %d broadcasts and deleted %d: the test checks nothing", chained, deleted)
	}
	if !slices.Equal(pl.appendBody(nil), body) {
		t.Error("the levels differ from the plan before the undone drop")
	}
	if len(pc.sends) != len(was) {
		t.Errorf("%d records after the undo, %d before", len(pc.sends), len(was))
	}
	for key, rec := range was {
		op := &pl.Levels[key[0]][key[1]]
		if pc.sends[op] != rec.sd {
			t.Fatalf("level %d op %d: the record is not the one before the drop", key[0]+1, key[1])
		}
		if rec.sd.need != nil && !reflect.DeepEqual(rec.sd.need.member, rec.member) {
			t.Errorf("level %d op %d: the demand list differs from the one before the drop", key[0]+1, key[1])
		}
	}
	for i := range pc.steps {
		if st := &pc.steps[i]; st.sd != pc.sends[st.op] {
			t.Fatalf("step %d lists another record than its op's", i)
		}
	}
	senders := 0
	for _, ops := range pl.Levels {
		for x := range ops {
			if sendParts(&ops[x]) > 0 {
				senders++
			}
		}
	}
	if len(pc.steps) != senders {
		t.Errorf("%d steps listed over %d sending ops", len(pc.steps), senders)
	}
}

// TestDropUndoesAnInvalidPlan: once holders serve, drop also undoes a drop
// the validator rejects, though no clock gets later. The drop here cuts
// the last member of every R2 column pivot of two or more members off its
// parent: it receives nothing, and a pivot takes no mirror holder. Before
// holders serve, drop checks the clocks alone and keeps it.
func TestDropUndoesAnInvalidPlan(t *testing.T) {
	ly := testLayout(t, graph.Grid2D(12, 12, graph.UnitWeights), 49)
	for _, serving := range []bool{true, false} {
		pl, sends, err := buildLabelOrder(ly, 49, WirePruned, R4Mapped)
		if err != nil {
			t.Fatal(err)
		}
		pc := newPlacer(pl, sends)
		pc.chooseTrees()
		pc.serving = serving
		body := pl.appendBody(nil)
		cut := 0
		pc.drop(func([]Op) func(*Op, *sendDemand) bool {
			return func(op *Op, _ *sendDemand) bool {
				if last := len(op.Group) - 1; op.Kind == opR2Left && last > 0 {
					op.Parent = slices.Clone(op.Parent)
					op.Parent[last] = -1
					cut++
				}
				return true
			}
		})
		if cut == 0 {
			t.Fatal("no pivot to cut: the test checks nothing")
		}
		if undone := slices.Equal(pl.appendBody(nil), body); undone != serving {
			t.Errorf("serving=%v: the drop was undone: %v", serving, undone)
		}
	}
}
