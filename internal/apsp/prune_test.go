package apsp

import (
	"math/rand"
	"testing"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
)

// TestPrunedWireMatchesDense is the structure-aware wire's safety
// contract: across graph families, both executors and both R4
// strategies, the default wire's distances are bit-identical to
// wire=dense — skipping and pruning elide only entries every receiver
// provably absorbs — while its critical path never carries more messages
// than dense's, it never moves more words than dense plus one word per
// message, and it wins strictly where there is structure to exploit. The one word is the
// encoding tag every packed payload carries: on a graph with nothing to
// prune (gnp-dense: 10,173 / 7,271 words against dense's 10,161 /
// 7,263) it is all that separates the two wires. Until the schedule
// stopped planning consumer-less panels — which only dense paid for in
// full — that overhead was hidden and the bound read "≤ dense".
// The mask-skipped schedule's message counts are pinned to literals
// (re-pinned with it, EXPERIMENTS.md E29, and when R3 stopped handing a
// sink's mirror its panels, E46): the label-order plan sends exactly
// them. The placement then only deletes messages — a member dropMirrors
// removes (E44), one that holds its payload's mirror and stops receiving
// (E47), a participant whose fold dropDead proves the identity (E48) —
// which ones depends on the trees, so the executors must send what the
// built plan lists, no more than the pin, and the total no longer bounds
// dense's.
func TestPrunedWireMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name string
		g    *graph.Graph
		p    int
		// strictWin marks families with small separators, where total
		// words must drop strictly below dense; strongWin marks graphs
		// where whole blocks stay empty for the entire solve
		// (hub-and-spoke), where they must at least halve.
		strictWin, strongWin bool
		// msgs is TotalMessages under R4Mapped and R4Sequential.
		msgs [2]int64
	}{
		{"grid12", graph.Grid2D(12, 12, graph.RandomWeights(rng, 1, 10)), 49, true, false, [2]int64{152, 140}},
		{"path", graph.Path(240, graph.UnitWeights), 49, true, false, [2]int64{141, 132}},
		{"tree", graph.RandomTree(200, graph.UnitWeights, rng), 49, true, false, [2]int64{68, 64}},
		{"star", graph.Star(120, graph.UnitWeights), 49, true, true, [2]int64{40, 38}},
		// Two disconnected cliques: the eTree schedule never ships a
		// cross-component block at all (their separators are empty), and
		// no receiver can fold the clique diagonals that do travel.
		{"two-cliques", disconnectedCliques(40), 9, false, false, [2]int64{4, 4}},
		{"gnp-dense", graph.RandomGNP(60, 0.4, graph.RandomWeights(rng, 1, 5), rng), 9, false, false, [2]int64{12, 11}},
	}
	for _, tc := range cases {
		h, err := HeightForP(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		ly, err := NewLayout(tc.g, h, 7)
		if err != nil {
			t.Fatal(err)
		}
		for si, strat := range []R4Strategy{R4Mapped, R4Sequential} {
			built, err := BuildPlan(ly, tc.p, WirePruned, strat)
			if err != nil {
				t.Fatal(err)
			}
			if planned := planMessages(labelOrderPlan(t, ly, tc.p, WirePruned, strat)); planned != tc.msgs[si] {
				t.Errorf("%s r4=%d: the mask-skipped schedule sends %d messages, want %d", tc.name, strat, planned, tc.msgs[si])
			}
			listed := planMessages(built)
			if listed > tc.msgs[si] {
				t.Errorf("%s r4=%d: the built plan sends %d messages, more than the %d its schedule planned", tc.name, strat, listed, tc.msgs[si])
			}
			dense, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 7, Wire: WireDense, R4Strategy: strat})
			if err != nil {
				t.Fatalf("%s dense: %v", tc.name, err)
			}
			for _, e := range []struct {
				name  string
				solve func(*graph.Graph, int, SparseOptions) (*DistResult, error)
			}{{"dataflow", SparseAPSPWith}, {"machine", machineSolve}} {
				ex := e.name
				pruned, err := e.solve(tc.g, tc.p, SparseOptions{Seed: 7, R4Strategy: strat})
				if err != nil {
					t.Fatalf("%s pruned/%v: %v", tc.name, ex, err)
				}
				pr, dr := pruned.Report, dense.Report
				if !identicalMatrices(pruned.Dist, dense.Dist) {
					t.Errorf("%s r4=%d %v: pruned distances differ from dense", tc.name, strat, ex)
				}
				if pr.TotalWords > dr.TotalWords+pr.TotalMessages || pr.Critical.Bandwidth > dr.Critical.Bandwidth+pr.Critical.Latency {
					t.Errorf("%s r4=%d %v: pruned words total/critical %d/%d exceed dense %d/%d by more than a tag word per message (%d/%d)",
						tc.name, strat, ex, pr.TotalWords, pr.Critical.Bandwidth, dr.TotalWords, dr.Critical.Bandwidth,
						pr.TotalMessages, pr.Critical.Latency)
				}
				if pr.Critical.Latency > dr.Critical.Latency {
					t.Errorf("%s r4=%d %v: pruned critical messages %d exceed dense %d",
						tc.name, strat, ex, pr.Critical.Latency, dr.Critical.Latency)
				}
				if pr.TotalMessages != listed {
					t.Errorf("%s r4=%d %v: message count %d, the plan lists %d", tc.name, strat, ex, pr.TotalMessages, listed)
				}
				if tc.strictWin && pr.TotalWords >= dr.TotalWords {
					t.Errorf("%s r4=%d %v: pruned total words %d not strictly below dense %d",
						tc.name, strat, ex, pr.TotalWords, dr.TotalWords)
				}
				if tc.strongWin && pr.TotalWords*2 > dr.TotalWords {
					t.Errorf("%s r4=%d %v: pruned total words %d not below half of dense %d",
						tc.name, strat, ex, pr.TotalWords, dr.TotalWords)
				}
			}
		}
	}
}

// TestWordsByClassBreakdown pins the per-phase accounting: the class
// counters partition TotalWords exactly, the classes land where the
// schedule says they must (R4Seq traffic only under R4Sequential,
// panel/reduce traffic only under R4Mapped, nothing unclassified), and
// the breakdown is part of the executor-equality contract (Report is
// DeepEqual-compared in TestExecutorEquality, WordsByClass included).
func TestWordsByClassBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := graph.Grid2D(12, 12, graph.RandomWeights(rng, 1, 10))
	for _, wire := range []WireFormat{WirePruned, WireDense} {
		for _, strat := range []R4Strategy{R4Mapped, R4Sequential} {
			res, err := SparseAPSPWith(g, 49, SparseOptions{Seed: 7, Wire: wire, R4Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, w := range res.Report.WordsByClass {
				sum += w
			}
			if sum != res.Report.TotalWords {
				t.Errorf("%v r4=%d: class words sum %d != total %d", wire, strat, sum, res.Report.TotalWords)
			}
			if w := res.Report.WordsByClass[comm.SendOther]; w != 0 {
				t.Errorf("%v r4=%d: %d words left unclassified", wire, strat, w)
			}
			mapped := res.Report.WordsByClass[comm.SendR4Panel] + res.Report.WordsByClass[comm.SendR4Reduce]
			seq := res.Report.WordsByClass[comm.SendR4Seq]
			if strat == R4Mapped && (seq != 0 || mapped == 0) {
				t.Errorf("%v mapped: r4-seq words %d (want 0), panel+reduce %d (want >0)", wire, seq, mapped)
			}
			if strat == R4Sequential && (mapped != 0 || seq == 0) {
				t.Errorf("%v sequential: panel+reduce words %d (want 0), r4-seq %d (want >0)", wire, mapped, seq)
			}
		}
	}
}

// planMessages counts the messages pl's ops send (appendMessages).
func planMessages(pl *Plan) int64 {
	var n int64
	for _, ops := range pl.Levels {
		for x := range ops {
			n += int64(len(appendMessages(nil, &ops[x])))
		}
	}
	return n
}
