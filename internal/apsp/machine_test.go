package apsp

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/semiring"
)

// executeMachine runs the plan on the simulated machine: p rank
// goroutines communicating through mailboxes, every exchange through
// comm's own collectives. It is the reference semantics ExecuteOpts is
// checked against (TestExecutorEquality, TestPlanClockIsExact): it
// shares the numeric steps of exec.go but not the message expansion
// (appendMessages) the executor is wired from. An op's tag is its
// ordinal over all levels, so no two ops share one.
func (pl *Plan) executeMachine(ly *Layout) (*DistResult, error) {
	blocks, release := ly.BlocksPooled()
	machine, err := pl.runMachine(blocks)
	if err != nil {
		return nil, err
	}
	phases, err := machine.PhaseCosts()
	if err != nil {
		return nil, fmt.Errorf("apsp: phase accounting failed: %w", err)
	}
	dist := ly.AssembleOriginal(blocks)
	release()
	return &DistResult{
		Dist:   dist,
		Report: machine.Report(),
		Layout: ly,
		P:      pl.P,
		Phases: phases,
	}, nil
}

// sentFrom is what a sender of the machine reference packs from: a
// broadcast root's block or a reduce member's unit (child -1), or the
// payload a mirror holder sends broadcast position child, decoded.
type sentFrom struct {
	op    *Op
	rank  int
	child int
	block *semiring.Matrix
}

// machineProbe, when a test sets it, sees every sentFrom on the sender's
// goroutine, so it must be safe for concurrent use.
var machineProbe func(sentFrom)

// runMachine runs the plan on the simulated machine over blocks, the
// block matrix Layout.Blocks builds, and leaves the final blocks there.
func (pl *Plan) runMachine(blocks [][]*semiring.Matrix) (*comm.Machine, error) {
	tags := make([]int, len(pl.Levels))
	for li := 1; li < len(tags); li++ {
		tags[li] = tags[li-1] + len(pl.Levels[li-1])
	}
	machine := comm.NewMachine(pl.P)
	err := machine.Run(func(ctx *comm.Ctx) {
		r := ctx.Rank()
		rs := &rankState{A: blocks[r/pl.NSup+1][r%pl.NSup+1]}
		arena := semiring.NewArena(pl.ScratchWords(r))
		for _, st := range pl.ranks[r] {
			pl.machineStep(ctx, rs, st, arena, tags)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("apsp: sparse solver failed: %w", err)
	}
	return machine, nil
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
		rs.combineR3(ctx, st.use)
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
		rs.unitProduct(ctx, pl.ownsUnitBlock(op), sizes[op.BI], sizes[op.BJ])
	case opReduce:
		var data []float64
		if st.use {
			data = pl.reducePayload(op, rs.unit)
			if machineProbe != nil && rs.unit != nil {
				machineProbe(sentFrom{op, rank, -1, rs.unit.Clone()})
			}
		}
		if res := ctx.ReduceTo(op.Group, op.Root, tag, data, semiring.MinInto); rank == op.Root {
			rs.fold(ctx, res, pl.upperReduce(op))
		}
	case opSeq, opTrans:
		var got [2]*semiring.Matrix
		for i, src := range op.Group {
			if src == op.Root {
				continue
			}
			if rank == src {
				ctx.Send(op.Root, tag, pl.pack(rs.A, op.prune(i)))
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
		// Every member sends each child the child's subtree demand, packed
		// from the block it holds: the root's own, a mirror holder's own
		// transposed, a relay's decoded from what it received. A consuming
		// root keeps the whole group's.
		rows, cols := sizes[op.BI], sizes[op.BJ]
		var payload []float64
		var held *semiring.Matrix
		switch {
		case rank == op.Root:
			held = rs.A
			if st.use {
				payload = pl.pack(rs.A, op.prune(0))
			}
		case op.holdsMirror(position(op.Group, rank)):
			held = pl.mirrorHeld(op, position(op.Group, rank), rank, rs)
		}
		holder := held != nil && rank != op.Root
		if machineProbe != nil && rank == op.Root {
			machineProbe(sentFrom{op, rank, -1, rs.A.Clone()})
		}
		data := ctx.BcastTreeEach(op.Group, op.Parent, tag, payload, func(child int, got []float64) []float64 {
			if held == nil {
				held = pl.unpack(got, rows, cols)
			}
			out := pl.pack(held, op.prune(child))
			if machineProbe != nil && holder {
				machineProbe(sentFrom{op, rank, child, pl.unpack(out, rows, cols)})
			}
			return out
		})
		if st.use && holder {
			rs.consume(ctx, op.Kind, held, a)
		} else if st.use {
			rs.consume(ctx, op.Kind, pl.unpack(data, rows, cols), a)
		}
	}
}
