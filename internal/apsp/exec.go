package apsp

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// What a rank does with a payload, and the reference semantics of a
// Plan replay. The numeric steps below — one per kind — are shared by
// both executors, which call them in each rank's program order
// (Plan.ranks) and charge them through their own sink. How messages
// travel is not shared: executeMachine, the literal simulated machine
// with one goroutine per rank, drives every exchange through comm's own
// BcastTree, ReduceTo, Send and Recv, while ExecuteOpts (dataflow.go) wires
// them from appendMessages. That keeps the machine an independent check
// of the expansion: TestExecutorEquality and TestPlanClockIsExact hold
// the two executors to the same distances and the same charged costs —
// the ones the golden cost test pins.

// LayoutFor wraps g in a Layout that reuses the plan's cached symbolic
// state. This is the warm serving path: the only per-solve work is the
// O(n + m) permutation of the weights — no nested dissection, no
// eTree, no fill mask.
func (pl *Plan) LayoutFor(g *graph.Graph) *Layout {
	return &Layout{
		G:    g,
		PG:   g.Permute(pl.ND.Perm),
		ND:   pl.ND,
		Tree: pl.Tree,
		Fill: pl.Fill,
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
}

// sink is what a step charges its work to: the machine rank's comm.Ctx,
// or the dataflow executor's ledger slot for the rank.
type sink interface {
	AddFlops(n int64)
	AddMemory(delta int64)
}

// diag runs R1 on the owned diagonal block.
func (rs *rankState) diag(s sink) { s.AddFlops(semiring.ClassicalFW(rs.A)) }

// consume acts on a broadcast payload d: an R2 panel update of the
// owned block, or a capture for the unit product or the R3 combine.
func (rs *rankState) consume(s sink, kind uint8, d *semiring.Matrix, a *semiring.Arena) {
	s.AddMemory(int64(len(d.V)))
	switch kind {
	case opR2Left:
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

// unitProduct computes the rank's R4 unit from its captured operands.
func (rs *rankState) unitProduct(s sink, rows, cols int) {
	rs.unit = semiring.NewMatrix(rows, cols)
	s.AddMemory(int64(len(rs.unit.V)))
	s.AddFlops(semiring.MulAddInto(rs.unit, rs.aik, rs.akj))
}

// fold min-folds a reduced unit sum into the owned block.
func (rs *rankState) fold(s sink, res []float64) {
	semiring.MinInto(rs.A.V, res)
	s.AddFlops(int64(len(res)))
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
// drops them.
func (rs *rankState) combineR3(s sink) {
	if rs.rowPanel != nil && rs.colPanel != nil {
		s.AddFlops(semiring.MulAddInto(rs.A, rs.rowPanel, rs.colPanel))
	}
	drop(s, &rs.rowPanel)
	drop(s, &rs.colPanel)
}

func drop(s sink, m **semiring.Matrix) {
	if *m != nil {
		s.AddMemory(-int64(len((*m).V)))
		*m = nil
	}
}

// levelName is the phase-mark id of level index li.
func levelName(li int32) string { return fmt.Sprintf("level-%d", li+1) }

// executeMachine runs the plan on the simulated machine: p rank
// goroutines communicating through mailboxes. It is the reference
// semantics ExecuteOpts is checked against (TestExecutorEquality) and
// has no caller outside the package's tests. An op's tag is its ordinal
// over all levels, so no two ops share one.
func (pl *Plan) executeMachine(ly *Layout) (*DistResult, error) {
	blocks, release := ly.BlocksPooled()
	tags := make([]int, len(pl.Levels))
	for li := 1; li < len(tags); li++ {
		tags[li] = tags[li-1] + len(pl.Levels[li-1])
	}
	machine := comm.NewMachine(pl.P)
	err := machine.Run(func(ctx *comm.Ctx) {
		r := ctx.Rank()
		rs := &rankState{A: blocks[r/pl.NSup+1][r%pl.NSup+1]}
		scratch := semiring.NewArena(pl.ScratchWords(r))
		for _, st := range pl.ranks[r] {
			pl.machineStep(ctx, rs, st, scratch, tags)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("apsp: sparse solver failed: %w", err)
	}
	phases, err := machine.PhaseCosts()
	if err != nil {
		return nil, fmt.Errorf("apsp: phase accounting failed: %w", err)
	}
	dist := ly.AssembleOriginal(blocks)
	release()
	return &DistResult{
		Dist:    dist,
		Report:  machine.Report(),
		Layout:  ly,
		P:       pl.P,
		Phases:  phases,
		Traffic: machine.Traffic(),
	}, nil
}

// machineStep runs one step of the calling rank's program on the
// machine.
func (pl *Plan) machineStep(ctx *comm.Ctx, rs *rankState, st step, a *semiring.Arena, tags []int) {
	switch st.kind {
	case kindInit:
		ctx.SetMemory(int64(len(rs.A.V)))
		return
	case kindMark:
		ctx.Mark(levelName(st.level))
		return
	case kindR4Release:
		rs.releaseR4(ctx)
		return
	case kindR3Combine:
		rs.combineR3(ctx)
		return
	}
	rank, sizes := ctx.Rank(), pl.ND.Sizes
	op := &pl.Levels[st.level][st.op]
	tag := tags[st.level] + int(st.op)
	ctx.SetSendClass(opSendClass[op.Kind])
	switch op.Kind {
	case opDiag:
		rs.diag(ctx)
	case opUnit:
		rs.unitProduct(ctx, sizes[op.BI], sizes[op.BJ])
	case opReduce:
		var data []float64
		if st.use {
			data = rs.unit.V
		}
		if res := ctx.ReduceTo(op.Group, op.Root, tag, data, semiring.MinInto); rank == op.Root {
			rs.fold(ctx, res)
		}
	case opSeq, opTrans:
		var got [2]*semiring.Matrix
		for i, src := range op.Group {
			if src == op.Root {
				continue
			}
			if rank == src {
				ctx.Send(op.Root, tag, pl.pack(rs.A, op.Prune[i]))
			}
			if rank == op.Root {
				bi, bj := op.payload(i)
				got[i] = pl.unpack(ctx.Recv(src, tag), sizes[bi], sizes[bj])
			}
		}
		if rank == op.Root && op.Kind == opSeq {
			rs.seqProduct(ctx, got)
		} else if rank == op.Root {
			rs.transpose(got[0])
		}
	default:
		var payload []float64
		if rank == op.Root {
			payload = pl.pack(rs.A, op.Prune[0]) // copy: receivers share the buffer
		}
		data := ctx.BcastTree(op.Group, op.Parent, tag, payload)
		if st.use {
			rs.consume(ctx, op.Kind, pl.unpack(data, sizes[op.BI], sizes[op.BJ]), a)
		}
	}
}

// pack encodes a block body for the wire; the machine charges bandwidth
// per payload word, so the encoded length IS the charged cost. The
// default wire ships only the rows/columns of the op's frozen demand
// descriptor (nil = every entry demanded; see demand.go) in the
// smallest encoding semiring.PackPruned finds; WireDense ships the raw
// body. Always copies — collective receivers share the payload's
// backing array, and an executor's scratch arena must never back a
// payload for the same reason. ExecuteOpts and the machine reference
// both call this, which is what keeps their charged words identical.
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
