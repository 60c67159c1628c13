package apsp

import (
	"fmt"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// What a rank does with a payload, and the reference semantics of a
// Plan replay. The numeric steps below — one per kind — are shared by
// ExecuteOpts (dataflow.go, through one exec per micro-node) and the
// test suite's machine reference (executeMachine, machine_test.go),
// which call them in each rank's program order (Plan.ranks). How
// messages travel is not shared: the machine, one goroutine per rank,
// drives every exchange through comm's own BcastTreeEach, ReduceTo, Send
// and Recv, while ExecuteOpts wires them from appendMessages. That keeps
// the machine an independent check of the expansion: TestExecutorEquality
// holds the two executors to the same distances. Only the machine counts
// what the steps charge, and the plan's price (Plan.Cost, which
// ExecuteOpts reports) is held to that count (TestPlanClockIsExact) —
// the costs the golden cost test pins.

// LayoutFor wraps g in a Layout that reuses the plan's cached symbolic
// state. This is the warm serving path: the only per-solve work is the
// O(n + m) permutation of the weights — no nested dissection, no
// eTree.
func (pl *Plan) LayoutFor(g *graph.Graph) *Layout {
	return &Layout{
		G:    g,
		PG:   g.Permute(pl.ND.Perm),
		ND:   pl.ND,
		Tree: pl.Tree,
	}
}

// rankState is one rank's numeric state during an execute: the owned
// block and what the level's broadcasts captured for a later step. The
// R4 release and the R3 combine drop the captures, so nothing leaks
// across levels. Only the rank's own steps touch it.
type rankState struct {
	A                  *semiring.Matrix
	rowPanel, colPanel *semiring.Matrix // R3 captures
	aik, akj, unit     *semiring.Matrix // R4 operands and the unit product
	pivot              *semiring.Matrix // the last R2 column pivot decoded
}

// sink is what a step charges its work to: the machine rank's comm.Ctx,
// the referee of the plan's price. The dataflow executor passes one that
// counts nothing (uncounted).
type sink interface {
	AddFlops(n int64)
	AddMemory(delta int64)
}

// uncounted is the sink of the dataflow executor's steps: the plan
// prices what they charge (Plan.Cost).
type uncounted struct{}

func (uncounted) AddFlops(int64)  {}
func (uncounted) AddMemory(int64) {}

// diag runs R1 on the owned diagonal block through fw: ClassicalFW, or
// in the dataflow executor one split across idle workers (dfRun.fw),
// which gives the same bits and flops.
func (rs *rankState) diag(s sink, fw func(*semiring.Matrix) int64) { s.AddFlops(fw(rs.A)) }

// consume acts on a broadcast payload d: an R2 panel update of the
// owned block, or a capture for the unit product or the R3 combine.
func (rs *rankState) consume(s sink, kind uint8, d *semiring.Matrix, a *semiring.Arena) {
	s.AddMemory(int64(len(d.V)))
	switch kind {
	case opR2Left:
		rs.pivot = d
		s.AddFlops(semiring.PanelUpdateLeftScratch(rs.A, d, a))
		s.AddMemory(-int64(len(d.V)))
	case opR2Right:
		s.AddFlops(semiring.PanelUpdateRightScratch(rs.A, d, a))
		s.AddMemory(-int64(len(d.V)))
	case opR4Aik:
		rs.aik = d
	case opR4Akj:
		rs.akj = d
	case opR3Row:
		rs.rowPanel = d
	case opR3Col:
		rs.colPanel = d
	}
}

// unitProduct computes the rank's R4 unit from its captured operands:
// into a unit of its own, which the block's reduce ships, or with owned
// set — the rank owns the unit's block (unitRank) — straight into the
// owned block, which the reduce then folds the other units into, so no
// unit is held beside it. A diagonal block's unit may be handed its
// column panel alone (dropMirrors): its right operand A(k,i) is that
// panel's mirror.
func (rs *rankState) unitProduct(s sink, owned bool, rows, cols int) {
	if rs.akj == nil {
		rs.akj = mirror(s, rs.aik)
	}
	dst := rs.A
	if !owned {
		rs.unit = semiring.NewMatrix(rows, cols)
		s.AddMemory(int64(len(rs.unit.V)))
		dst = rs.unit
	}
	s.AddFlops(semiring.MulAddInto(dst, rs.aik, rs.akj))
}

// ownsUnitBlock reports whether unit op runs on the owner of the block
// it updates.
func (pl *Plan) ownsUnitBlock(op *Op) bool { return op.Root == rankOf(op.BI, op.BJ, pl.NSup) }

// fold min-folds a reduced unit sum into the owned block: res is the
// sum's body, or with upper set its upper triangle (Plan.reducePayload),
// folded into both halves.
func (rs *rankState) fold(s sink, res []float64, upper bool) {
	if upper {
		semiring.MinIntoUpper(rs.A, res)
	} else {
		semiring.MinInto(rs.A.V, res)
	}
	s.AddFlops(int64(len(rs.A.V)))
}

// seqProduct folds A(BI,K) ⊗ A(K,BJ) into the owned block: got[i] is
// the operand seq member i sent, nil where the owner holds it itself.
func (rs *rankState) seqProduct(s sink, got [2]*semiring.Matrix) {
	var transient int64
	for i, m := range got {
		if m == nil {
			got[i] = rs.A
		} else {
			transient += int64(len(m.V))
		}
	}
	s.AddMemory(transient)
	s.AddFlops(semiring.MulAddInto(rs.A, got[0], got[1]))
	s.AddMemory(-transient)
}

// transpose replaces the owned block with the mirror block received —
// replace, not fold, which is why transposes are never pruned.
func (rs *rankState) transpose(src *semiring.Matrix) { rs.A.CopyFrom(src.Transpose()) }

// releaseR4 drops the unit and its operands.
func (rs *rankState) releaseR4(s sink) {
	drop(s, &rs.unit)
	drop(s, &rs.aik)
	drop(s, &rs.akj)
}

// combineR3 multiplies the captured R3 panels into the owned block and
// drops them. With mirrored set the rank owns a diagonal block and was
// handed its row panel alone (dropMirrors): the column panel is its
// transpose.
func (rs *rankState) combineR3(s sink, mirrored bool) {
	if mirrored {
		rs.colPanel = mirror(s, rs.rowPanel)
	}
	if rs.rowPanel != nil && rs.colPanel != nil {
		s.AddFlops(semiring.MulAddInto(rs.A, rs.rowPanel, rs.colPanel))
	}
	drop(s, &rs.rowPanel)
	drop(s, &rs.colPanel)
}

// mirror returns panelᵀ, charged to rank memory like the received
// payload it stands in for (and dropped with it).
func mirror(s sink, panel *semiring.Matrix) *semiring.Matrix {
	t := panel.Transpose()
	s.AddMemory(int64(len(t.V)))
	return t
}

func drop(s sink, m **semiring.Matrix) {
	if *m != nil {
		s.AddMemory(-int64(len((*m).V)))
		*m = nil
	}
}

// upperReduce reports whether reduce op's payloads are upper triangles:
// on the pruned wire, for a diagonal block, every unit A(I,K) ⊗ A(K,I)
// is its own transpose (A(K,I) = A(I,K)ᵀ), and so is their min-fold.
// The dense wire ships Algorithm 1's whole blocks.
func (pl *Plan) upperReduce(op *Op) bool { return pl.Wire == WirePruned && op.BI == op.BJ }

// reducePayload is what a member of reduce op contributes: its unit's
// body, or its upper triangle when the op's payloads are (upperReduce).
// A root whose unit went into its own block (unitProduct) has none and
// contributes an all-Inf payload.
func (pl *Plan) reducePayload(op *Op, unit *semiring.Matrix) []float64 {
	if unit == nil {
		unit = semiring.NewMatrix(pl.ND.Sizes[op.BI], pl.ND.Sizes[op.BJ])
	}
	if pl.upperReduce(op) {
		return semiring.PackUpper(unit)
	}
	return unit.V
}

// mirrorHeld returns what mirror holder rank, at position pos of
// broadcast op, sends its children slices of: the transpose of the
// mirror it holds — its own block if it owns the mirror, else the panel
// of it it captured from the pair broadcast (the R3 row panel, the R4
// column panel) — kept to the position's descriptor, the rectangle the
// plan prices its sends from (placer.weigh).
func (pl *Plan) mirrorHeld(op *Op, pos, rank int, rs *rankState) *semiring.Matrix {
	src := rs.A
	switch {
	case rank == mirrorOwner(op, pl.NSup):
	case op.Kind == opR2Right:
		src = rs.pivot
	case op.Kind == opR3Col:
		src = rs.rowPanel
	default:
		src = rs.aik
	}
	t := src.Transpose()
	if op.Kind == opR2Right {
		// A pivot's diagonal is +0 (no negative cycle), but the capture
		// holds only the entries its own descriptor kept (PackPruned's
		// dropZeroDiag): put the zeros back, so that the holder holds what
		// the plan prices it as holding.
		for r := 0; r < t.Rows; r++ {
			t.V[r*t.Cols+r] = 0
		}
	}
	if spec := op.prune(pos); spec != nil {
		keepOnly(t, spec.Rows, spec.Cols)
	}
	return t
}

// keepOnly sets every entry of m outside the rows × cols rectangle to
// Inf; a nil axis keeps every index.
func keepOnly(m *semiring.Matrix, rows, cols []int32) {
	keepR, keepC := make([]bool, m.Rows), make([]bool, m.Cols)
	for t, list := range [2][]int32{rows, cols} {
		keep := [2][]bool{keepR, keepC}[t]
		for x := range keep {
			keep[x] = list == nil
		}
		for _, x := range list {
			keep[x] = true
		}
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if !keepR[r] || !keepC[c] {
				m.V[r*m.Cols+c] = semiring.Inf
			}
		}
	}
}

// levelName is the phase-mark id of level index li.
func levelName(li int32) string { return fmt.Sprintf("level-%d", li+1) }

// pack encodes a block body for the wire; the machine charges bandwidth
// per payload word, so the encoded length IS the charged cost. The
// default wire ships only the rows/columns of the op's frozen demand
// descriptor (nil = every entry demanded; see demand.go) in the
// smallest encoding semiring.PackPruned finds; WireDense ships the raw
// body. Always copies — collective receivers share the payload's
// backing array, and an executor's scratch arena must never back a
// payload for the same reason. ExecuteOpts and the machine reference
// both call this, and packPrice prices what it ships.
func (pl *Plan) pack(m *semiring.Matrix, prune *PruneSpec) []float64 {
	switch {
	case pl.Wire == WireDense:
		return append([]float64(nil), m.V...)
	case prune == nil:
		return semiring.PackPruned(m, nil, nil, false)
	default:
		return semiring.PackPruned(m, prune.Rows, prune.Cols, prune.ZeroDiag)
	}
}

// unpack decodes a received payload into a rows×cols block. The result
// always owns its body — never the payload's backing array, which every
// sibling receiver of the collective shares (and the dataflow executor
// retains in its message slot).
func (pl *Plan) unpack(data []float64, rows, cols int) *semiring.Matrix {
	if pl.Wire == WireDense {
		return semiring.FromSlice(rows, cols, append([]float64(nil), data...))
	}
	return semiring.UnpackMatrix(data, rows, cols)
}
