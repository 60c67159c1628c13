package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparseapsp/internal/semiring"
)

// TestR3SinksAreNeverRead checks the premise of computing an R3 sink
// block in one orientation on every plan instead of arguing it once: no
// op after level l reads either orientation of a block R3 wrote at level
// l with both coordinates below l — not as a broadcast, seq or transpose
// payload, and not as an R2 panel or an R4 destination that folds into
// itself. Later levels' R3 ops only write such a block again (its owned
// orientation, on the pruned wire), so only the final matrix sees it.
func TestR3SinksAreNeverRead(t *testing.T) {
	if testing.Short() {
		t.Skip("every plan of the structural grid; run without -short")
	}
	type block struct{ i, j int }
	sinks := 0
	forEachShapePlan(t, func(t *testing.T, name string, _ *Layout, pl *Plan) {
		written := map[block]int{} // sink block → the level R3 wrote it at
		for li, ops := range pl.Levels {
			l := li + 1
			read := func(i, j int, what string) {
				for _, b := range []block{{i, j}, {j, i}} {
					if at, ok := written[b]; ok {
						t.Errorf("%s: level %d %s reads (%d,%d), an R3 sink of level %d", name, l, what, i, j, at)
					}
				}
			}
			for _, op := range ops {
				switch {
				case isBcast(op.Kind):
					read(op.BI, op.BJ, dfKindNames[op.Kind]+" payload")
				case op.Kind == opSeq:
					read(op.BI, op.K, "seq operand")
					read(op.K, op.BJ, "seq operand")
				case op.Kind == opTrans:
					read(op.BI, op.BJ, "transpose source")
				case op.Kind == opReduce:
					read(op.BI, op.BJ, "reduce destination")
				}
				if op.Kind == opR2Left || op.Kind == opR2Right {
					for _, c := range op.Consumers {
						i, j := blockOf(c, pl.NSup)
						read(i, j, "R2 panel")
					}
				}
			}
			for _, op := range ops {
				if op.Kind != opR3Row && op.Kind != opR3Col {
					continue
				}
				for _, c := range op.Consumers {
					if i, j := blockOf(c, pl.NSup); i != j && pl.Tree.Level(i) < l && pl.Tree.Level(j) < l {
						written[block{i, j}] = l
					}
				}
			}
		}
		sinks += len(written)
	})
	if sinks == 0 {
		t.Error("no plan writes an R3 sink: the test checks nothing")
	}
}

// TestR3SinkComputedOnce: over the sweep families, p ∈ {9, 49, 225} and
// both R4 strategies, on integer and on real-valued weights, no R3 panel
// of the pruned wire reaches the mirror of a sink block, while the dense
// wire (Algorithm 1's schedule) hands some mirror one; the pruned wire's
// distances equal the dense wire's and the machine reference's bit for
// bit; and the premise of reading one orientation per pair holds on the
// final blocks the machine leaves: under the dense wire every block is
// its mirror's transpose bit for bit, and under the pruned wire every
// block but a sink's mirror is.
func TestR3SinkComputedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep shapes on both wires; run without -short")
	}
	halved := 0 // cells where the dense wire hands a sink's mirror a panel
	for _, f := range placeFamilies {
		for _, wt := range placeWeights {
			g := f.make(wt.w(rand.New(rand.NewSource(5))), rand.New(rand.NewSource(3)))
			for _, p := range []int{9, 49, 225} {
				ly := testLayout(t, g, p)
				for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
					name := fmt.Sprintf("%s/%s/p=%d/r4=%d", f.name, wt.name, p, r4)
					pruned := buildTestPlanAt(t, ly, p, WirePruned, r4)
					dense := buildTestPlanAt(t, ly, p, WireDense, r4)
					if n := sinkMirrorConsumers(pruned); n != 0 {
						t.Errorf("%s: %d R3 panels reach the mirror of a sink block", name, n)
					}
					if sinkMirrorConsumers(dense) > 0 {
						halved++
					}
					var dists [3]string
					for i, pl := range []*Plan{pruned, dense} {
						res, err := pl.ExecuteOpts(ly, ExecOpts{})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						dists[i] = distHash(res.Dist)
						blocks := ly.Blocks()
						if _, err := pl.runMachine(blocks); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if pl == pruned {
							dists[2] = distHash(ly.AssembleOriginal(blocks))
						}
						if i, j, ok := untransposedPair(pl, blocks); ok {
							t.Errorf("%s/%v: final block (%d,%d) is not the transpose of (%d,%d)", name, pl.Wire, i, j, j, i)
						}
					}
					if dists[0] != dists[1] || dists[0] != dists[2] {
						t.Errorf("%s: pruned, dense and machine distances differ", name)
					}
				}
			}
		}
	}
	if halved == 0 {
		t.Error("no dense plan hands a sink's mirror a panel: the test checks nothing")
	}
}

// untransposedPair returns a pair of final blocks that AssembleOriginal
// would read as a pair but which differ from each other's transpose: any
// off-diagonal pair on the dense wire, and on the pruned wire any but a
// sink's mirror — a pair below the root level, which R3 writes as a sink
// at the root level at the latest.
func untransposedPair(pl *Plan, blocks [][]*semiring.Matrix) (int, int, bool) {
	for i := 1; i <= pl.NSup; i++ {
		for j := 1; j <= pl.NSup; j++ {
			if ownsBlock(i, j) || pl.Wire == WirePruned && sinkMirror(pl.Tree, pl.H, i, j) {
				continue
			}
			a, b := blocks[i][j], blocks[j][i]
			for r := 0; r < a.Rows; r++ {
				for c := 0; c < a.Cols; c++ {
					if math.Float64bits(a.V[r*a.Cols+c]) != math.Float64bits(b.V[c*b.Cols+r]) {
						return i, j, true
					}
				}
			}
		}
	}
	return 0, 0, false
}

// sinkMirrorConsumers counts the R3 panels pl hands the mirror of a sink
// block of their level.
func sinkMirrorConsumers(pl *Plan) int {
	n := 0
	for li, ops := range pl.Levels {
		for _, op := range ops {
			if op.Kind != opR3Row && op.Kind != opR3Col {
				continue
			}
			for _, c := range op.Consumers {
				if i, j := blockOf(c, pl.NSup); sinkMirror(pl.Tree, li+1, i, j) {
					n++
				}
			}
		}
	}
	return n
}
